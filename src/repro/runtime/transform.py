"""Stack transformation (Section 5.3) — f_AB : S^IA -> S^IB.

At a migration point the runtime rewrites the thread's stack from the
source ISA's ABI into the destination ISA's ABI, frame by frame,
"without restrictions on stack frame layout":

* live values are located through the compiler's stackmaps (register or
  slot, per ISA) and copied across;
* a live value held in a callee-saved register is found by walking down
  the call chain to the frame that saved the register (and is placed,
  on the destination side, in the save slot of the nearest younger
  frame that saves it — or directly in the destination register file);
* return addresses are rewritten through the ISA-independent site ids,
  the cross-ISA return-address mapping;
* the saved-frame-pointer chain is rebuilt for the destination ABI;
* pointers into the source stack are fixed up to point at the
  corresponding destination-stack location (the destination layout is
  fully precomputed, so no fixup ever dangles);
* stack buffers (allocas) are copied verbatim — their contents are in
  the common data format.

The rewrite targets the inactive half of the thread's stack region and
the caller switches halves afterwards, exactly as in the paper.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compiler.codegen import MachineFunction
from repro.compiler.stackmaps import StackMap, StackMapEntry, join_stackmaps
from repro.compiler.toolchain import MultiIsaBinary
from repro.runtime.address_space import AddressSpace
from repro.runtime.regmap import map_registers
from repro.runtime.stack import Frame


class TransformError(Exception):
    """The stack could not be transformed (toolchain invariant broken)."""


@dataclass
class TransformStats:
    """Work accounting; drives the latency model (Figure 10)."""

    frames: int = 0
    values_copied: int = 0
    pointers_fixed: int = 0
    buffer_words_copied: int = 0
    metadata_entries: int = 0

    def latency_seconds(self, isa_name: str) -> float:
        """Transformation latency on the *source* machine.

        Calibrated against Figure 10: the x86 processor transforms the
        stack "in under 400 us for the majority of cases, while the ARM
        processor requires 2x as much latency", rising with the number
        of frames and live values (metadata parsing + copying).
        """
        per_isa_scale = {"x86_64": 1.0, "arm64": 2.05}
        base = 45e-6
        per_frame = 28e-6
        per_value = 4.5e-6
        per_word = 0.05e-6
        seconds = (
            base
            + per_frame * self.frames
            + per_value * (self.values_copied + self.metadata_entries * 0.25)
            + per_word * self.buffer_words_copied
        )
        return seconds * per_isa_scale.get(isa_name, 1.5)


@dataclass
class _FramePlan:
    """Source/destination pairing for one activation."""

    src: Frame
    dst_mf: MachineFunction
    dst_cfa: int
    site_id: int  # migration-point site for the innermost frame
    stackmap_src: StackMap
    stackmap_dst: StackMap


class StackTransformer:
    """Rewrites thread stacks between ISAs."""

    def __init__(self, binary: MultiIsaBinary, space: AddressSpace):
        self.binary = binary
        self.space = space

    # ------------------------------------------------------------ entry

    def transform(
        self,
        thread,
        dst_isa_name: str,
        migpoint_site: int,
    ) -> TransformStats:
        """Rewrite ``thread``'s stack for ``dst_isa_name``.

        ``migpoint_site`` is the site id of the migration point the
        innermost frame is parked at.  On return the thread's frames,
        registers and stack half all describe the destination ISA; the
        caller is responsible for the actual kernel-level hand-off.
        """
        src_isa = thread.frames[-1].mf.isa
        if src_isa.name == dst_isa_name:
            raise TransformError("source and destination ISA are identical")
        dst_bin = self.binary.binary_for(dst_isa_name)
        stats = TransformStats()

        plans = self._plan(thread, dst_bin, migpoint_site, stats)
        new_regs = map_registers(
            dst_bin.isa,
            sp=plans[-1].dst_cfa - plans[-1].dst_mf.frame.frame_size,
            fp=plans[-1].dst_cfa,
            pc=plans[-1].dst_mf.return_address(migpoint_site),
        )

        self._rewrite_linkage(plans, stats)
        for i in range(len(plans) - 1, -1, -1):  # newest frame first
            self._rewrite_frame(plans, i, thread, new_regs, stats)

        # Commit: switch stack halves, adopt destination frames/registers.
        thread.stack.switch_halves()
        thread.regs = new_regs
        new_frames: List[Frame] = []
        for plan in plans:
            frame = Frame(
                mf=plan.dst_mf,
                cfa=plan.dst_cfa,
                resume=plan.src.resume,
                call_site_id=plan.src.call_site_id,
            )
            new_frames.append(frame)
        thread.frames = new_frames
        return stats

    # ------------------------------------------------------------- plan

    def _plan(
        self,
        thread,
        dst_bin,
        migpoint_site: int,
        stats: TransformStats,
    ) -> List[_FramePlan]:
        """Walk the source stack and precompute the destination layout.

        "The stack transformation library begins by analyzing the
        thread's current stack to find live stack frames and to
        calculate the size of the transformed stack."
        """
        plans: List[_FramePlan] = []
        cfa = thread.stack.other_top
        for depth, frame in enumerate(thread.frames):
            is_innermost = depth == len(thread.frames) - 1
            site = migpoint_site if is_innermost else frame.call_site_id
            if site < 0:
                raise TransformError(
                    f"frame {frame.function} has no pending call site"
                )
            dst_mf = dst_bin.function(frame.function)
            src_map = frame.mf.stackmaps.get(site)
            dst_map = dst_mf.stackmaps.get(site)
            if src_map is None or dst_map is None:
                raise TransformError(
                    f"no stackmap at site {site} in {frame.function}"
                )
            plans.append(
                _FramePlan(
                    src=frame,
                    dst_mf=dst_mf,
                    dst_cfa=cfa,
                    site_id=site,
                    stackmap_src=src_map,
                    stackmap_dst=dst_map,
                )
            )
            stats.metadata_entries += len(src_map) + len(dst_map)
            cfa -= dst_mf.frame.frame_size
        stats.frames = len(plans)
        if cfa < thread.stack.low:
            raise TransformError("transformed stack overflows the region")
        return plans

    # -------------------------------------------------------- linkage

    def _rewrite_linkage(self, plans: List[_FramePlan], stats) -> None:
        """Rebuild return addresses and the saved-FP chain (dst ABI)."""
        for i, plan in enumerate(plans):
            frame_meta = plan.dst_mf.frame
            caller = plans[i - 1] if i > 0 else None
            if caller is not None:
                ra = caller.dst_mf.return_address(caller.src.call_site_id)
                caller_fp = caller.dst_cfa
            else:
                ra = 0  # process entry: no caller
                caller_fp = 0
            if frame_meta.return_addr_depth:
                self.space.write(plan.dst_cfa - frame_meta.return_addr_depth, ra)
            if frame_meta.saved_lr_depth:
                self.space.write(plan.dst_cfa - frame_meta.saved_lr_depth, ra)
            if frame_meta.saved_fp_depth:
                self.space.write(plan.dst_cfa - frame_meta.saved_fp_depth, caller_fp)

    # ----------------------------------------------------------- frames

    def _rewrite_frame(
        self,
        plans: List[_FramePlan],
        index: int,
        thread,
        new_regs: Dict[str, float],
        stats: TransformStats,
    ) -> None:
        plan = plans[index]
        pairs = self._joined_entries(plan)
        for src_entry, dst_entry in pairs:
            value = self._read_src_value(plans, index, thread, src_entry)
            if src_entry.maybe_stack_pointer and isinstance(value, int):
                fixed = self._fixup_pointer(plans, thread, value)
                if fixed is not None:
                    value = fixed
                    stats.pointers_fixed += 1
            self._write_dst_value(plans, index, new_regs, dst_entry, value)
            stats.values_copied += 1
        self._copy_buffers(plan, stats)

    def _joined_entries(self, plan: _FramePlan):
        # join_stackmaps works off each map's cached var index, so the
        # per-frame join is O(live values), not O(n*m) rescans.
        try:
            return join_stackmaps(plan.stackmap_src, plan.stackmap_dst)
        except ValueError as exc:
            raise TransformError(
                f"live sets differ at site {plan.site_id} of "
                f"{plan.src.function}: {exc}"
            ) from None

    # ------------------------------------------------------ value moves

    def _read_src_value(
        self, plans: List[_FramePlan], index: int, thread, entry: StackMapEntry
    ):
        loc = entry.location
        frame = plans[index].src
        if loc.kind == "slot":
            return self.space.read(frame.cfa - loc.depth)
        # Register value: the youngest frame below (newer than) `index`
        # that saved this register holds the frame's value in its save
        # area; otherwise it is still live in the register file.
        for younger in range(index + 1, len(plans)):
            saved = plans[younger].src.mf.frame.saved_reg_depths
            if loc.reg in saved:
                return self.space.read(plans[younger].src.cfa - saved[loc.reg])
        return thread.regs.get(loc.reg, 0)

    def _write_dst_value(
        self,
        plans: List[_FramePlan],
        index: int,
        new_regs: Dict[str, float],
        entry: StackMapEntry,
        value,
    ) -> None:
        loc = entry.location
        if loc.kind == "slot":
            self.space.write(plans[index].dst_cfa - loc.depth, value)
            return
        # Destination register: "walks down the function call chain
        # until it finds the frame where the register has been saved".
        for younger in range(index + 1, len(plans)):
            saved = plans[younger].dst_mf.frame.saved_reg_depths
            if loc.reg in saved:
                self.space.write(
                    plans[younger].dst_cfa - saved[loc.reg], value
                )
                return
        new_regs[loc.reg] = value

    # --------------------------------------------------------- pointers

    def _fixup_pointer(
        self, plans: List[_FramePlan], thread, value: int
    ) -> Optional[int]:
        """Map a pointer into the active source stack half to the
        matching destination-stack address; None if not a stack pointer."""
        lo, hi = thread.stack.active_bounds()
        if not lo <= value < hi:
            return None
        for plan in plans:
            src_cfa = plan.src.cfa
            src_size = plan.src.mf.frame.frame_size
            if not (src_cfa - src_size <= value < src_cfa):
                continue
            depth = src_cfa - value
            src_frame = plan.src.mf.frame
            dst_frame = plan.dst_mf.frame
            # A named slot?
            for var, d in src_frame.slot_depths.items():
                if d >= depth > d - 8:
                    inner = d - depth
                    return plan.dst_cfa - dst_frame.slot_depths[var] + inner
            # Inside a stack buffer?
            for name, (d, size) in src_frame.buffer_depths.items():
                start = src_cfa - d
                if start <= value < start + size:
                    inner = value - start
                    dst_d, _ = dst_frame.buffer_depths[name]
                    return plan.dst_cfa - dst_d + inner
            raise TransformError(
                f"stack pointer {value:#x} targets unmapped area of "
                f"{plan.src.function} (depth {depth})"
            )
        raise TransformError(
            f"stack pointer {value:#x} not within any live frame"
        )

    # ---------------------------------------------------------- buffers

    def _copy_buffers(self, plan: _FramePlan, stats: TransformStats) -> None:
        src_frame = plan.src.mf.frame
        dst_frame = plan.dst_mf.frame
        for name, (src_depth, size) in src_frame.buffer_depths.items():
            dst_depth, _ = dst_frame.buffer_depths[name]
            src_base = plan.src.cfa - src_depth
            dst_base = plan.dst_cfa - dst_depth
            for offset in range(0, size, 8):
                # Zero words are written too: stack halves are reused on
                # consecutive migrations (A->B->A lands back on the
                # original half), so skipping zeros would let a word
                # zeroed on the other ISA resurface with its stale
                # pre-migration value.
                self.space.write(dst_base + offset, self.space.read(src_base + offset))
                stats.buffer_words_copied += 1
