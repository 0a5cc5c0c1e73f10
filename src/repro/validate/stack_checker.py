"""Stack-transformation checker (destination layout + A->B->A round trip).

:class:`ValidatedStackTransformer` is a drop-in
:class:`~repro.runtime.transform.StackTransformer` that, after every
``transform``, verifies the rewritten stack against the invariants the
paper's Section 5.3 machinery promises:

* the destination stack has exactly one frame per source activation,
  with contiguous, monotonically descending CFAs that stay inside the
  (newly active) stack half — no frame overlap, no overflow;
* every live value either survives bit-exactly (common data format) or
  is a stack pointer relocated from the old half into the new one, and
  every relocated pointer lands inside a live destination frame;
* stack buffers are copied verbatim, word for word — including zeros,
  which is exactly what the stale-half-reuse bug violated;
* in round-trip mode, transforming A->B and immediately back B->A
  restores slots, buffers and registers bit-exactly (f_BA ∘ f_AB = id),
  then undoes the speculative second transform so the caller observes
  only the A->B rewrite.
"""

from typing import Dict, List, Optional

from repro.runtime.transform import StackTransformer, TransformError
from repro.telemetry.validation import default_log
from repro.validate.errors import fail


class _StackSnapshot:
    """Pre-transform state needed to judge the post-transform stack."""

    def __init__(self, thread, live, buffers):
        self.half = thread.stack.half
        self.bounds = thread.stack.active_bounds()
        self.isa_name = thread.frames[-1].mf.isa.name
        self.regfile = thread.frames[-1].mf.isa.regfile
        self.regs = dict(thread.regs)
        self.frames = [
            {"function": f.function, "cfa": f.cfa,
             "frame_size": f.mf.frame.frame_size}
            for f in thread.frames
        ]
        self.live = live      # per frame: {var: value} or None
        self.buffers = buffers  # per frame: {name: [words]}


class ValidatedStackTransformer(StackTransformer):
    """StackTransformer that verifies every rewrite it performs."""

    CHECKER = "stack"

    def __init__(self, binary, space, roundtrip: bool = False):
        super().__init__(binary, space)
        self.roundtrip = roundtrip

    # ------------------------------------------------------------ entry

    def transform(self, thread, dst_isa_name: str, migpoint_site: int):
        src = self._snapshot(thread, migpoint_site)
        stats = StackTransformer.transform(
            self, thread, dst_isa_name, migpoint_site
        )
        default_log().note_check(self.CHECKER)
        self._check_layout(thread, src, dst_isa_name)
        self._check_buffers(thread, src, migpoint_site)
        self._check_values(thread, src, migpoint_site)
        if self.roundtrip:
            self._check_roundtrip(thread, src, migpoint_site)
        return stats

    # -------------------------------------------------------- snapshot

    def _snapshot(self, thread, migpoint_site: int) -> _StackSnapshot:
        return _StackSnapshot(
            thread,
            live=self._live_state(thread, migpoint_site),
            buffers=self._buffer_state(thread),
        )

    def _live_state(self, thread, innermost_site: int) -> List[Optional[Dict]]:
        """Read every live value per frame, through stackmaps.

        Mirrors the transformer's own value location rules: a slot is
        read at cfa - depth; a register value is found in the save area
        of the youngest younger frame that saved it, else in the
        register file.
        """
        frames = thread.frames
        out: List[Optional[Dict]] = []
        for index, frame in enumerate(frames):
            site = (
                innermost_site if index == len(frames) - 1
                else frame.call_site_id
            )
            smap = frame.mf.stackmaps.get(site)
            if smap is None:
                out.append(None)  # transform itself will reject this
                continue
            values = {}
            for entry in smap.entries:
                loc = entry.location
                if loc.kind == "slot":
                    values[entry.var] = self.space.read(frame.cfa - loc.depth)
                    continue
                value = None
                for younger in frames[index + 1:]:
                    saved = younger.mf.frame.saved_reg_depths
                    if loc.reg in saved:
                        value = self.space.read(younger.cfa - saved[loc.reg])
                        break
                if value is None:
                    value = thread.regs.get(loc.reg, 0)
                values[entry.var] = value
            out.append(values)
        return out

    def _buffer_state(self, thread) -> List[Dict[str, List]]:
        out = []
        for frame in thread.frames:
            words = {}
            for name, (depth, size) in frame.mf.frame.buffer_depths.items():
                base = frame.cfa - depth
                words[name] = [
                    self.space.read(base + offset)
                    for offset in range(0, size, 8)
                ]
            out.append(words)
        return out

    # ---------------------------------------------------------- checks

    def _fail(self, invariant: str, detail: str, thread, extra=None) -> None:
        state = {
            "frames": [repr(f) for f in thread.frames],
            "stack": repr(thread.stack),
            "half": thread.stack.half,
        }
        if extra:
            state.update(extra)
        fail(self.CHECKER, invariant, detail, state)

    def _check_layout(self, thread, src: _StackSnapshot, dst_isa_name) -> None:
        frames = thread.frames
        if len(frames) != len(src.frames):
            self._fail(
                "frame-count",
                f"{len(src.frames)} source frames became {len(frames)}",
                thread,
            )
        if thread.stack.half == src.half:
            self._fail(
                "half-switched",
                "transform committed without switching stack halves",
                thread,
            )
        lo, hi = thread.stack.active_bounds()
        if frames[0].cfa != thread.stack.top:
            self._fail(
                "outermost-at-top",
                f"outermost CFA {frames[0].cfa:#x} != stack top "
                f"{thread.stack.top:#x}",
                thread,
            )
        for i, frame in enumerate(frames):
            if frame.mf.isa.name != dst_isa_name:
                self._fail(
                    "frames-on-destination-isa",
                    f"frame {frame.function} is {frame.mf.isa.name}, "
                    f"expected {dst_isa_name}",
                    thread,
                )
            if frame.function != src.frames[i]["function"]:
                self._fail(
                    "call-chain-preserved",
                    f"frame {i} is {frame.function}, source had "
                    f"{src.frames[i]['function']}",
                    thread,
                )
            if not (lo <= frame.sp and frame.cfa <= hi):
                self._fail(
                    "frames-inside-half",
                    f"frame {frame.function} [{frame.sp:#x},{frame.cfa:#x}) "
                    f"escapes the active half [{lo:#x},{hi:#x})",
                    thread,
                )
            if i + 1 < len(frames):
                expected = frame.cfa - frame.mf.frame.frame_size
                if frames[i + 1].cfa != expected:
                    self._fail(
                        "cfa-monotone-contiguous",
                        f"frame {frames[i + 1].function} CFA "
                        f"{frames[i + 1].cfa:#x} != caller CFA - frame size "
                        f"({expected:#x}) — frames overlap or leave a gap",
                        thread,
                    )

    def _check_buffers(self, thread, src: _StackSnapshot, site: int) -> None:
        for i, frame in enumerate(thread.frames):
            dst_names = set(frame.mf.frame.buffer_depths)
            if dst_names != set(src.buffers[i]):
                self._fail(
                    "buffers-preserved",
                    f"frame {frame.function} buffers {sorted(dst_names)} != "
                    f"source buffers {sorted(src.buffers[i])}",
                    thread,
                )
            for name, (depth, size) in frame.mf.frame.buffer_depths.items():
                base = frame.cfa - depth
                got = [
                    self.space.read(base + offset)
                    for offset in range(0, size, 8)
                ]
                if got != src.buffers[i][name]:
                    self._fail(
                        "buffer-words-verbatim",
                        f"buffer {name!r} of {frame.function} not copied "
                        "bit-exactly (stale destination-half words?)",
                        thread,
                        {"expected": src.buffers[i][name], "got": got},
                    )

    def _check_values(self, thread, src: _StackSnapshot, site: int) -> None:
        dst_live = self._live_state(thread, site)
        src_lo, src_hi = src.bounds
        dst_lo, dst_hi = thread.stack.active_bounds()
        extents = [(f.sp, f.cfa) for f in thread.frames]
        for i, (src_vals, dst_vals) in enumerate(zip(src.live, dst_live)):
            if src_vals is None or dst_vals is None:
                continue
            if set(src_vals) != set(dst_vals):
                self._fail(
                    "live-sets-match",
                    f"frame {thread.frames[i].function}: live variables "
                    f"{sorted(src_vals)} became {sorted(dst_vals)}",
                    thread,
                )
            for var, before in src_vals.items():
                after = dst_vals[var]
                if after == before:
                    continue
                # The only legal change is stack-pointer relocation.
                relocated = (
                    isinstance(before, int)
                    and isinstance(after, int)
                    and src_lo <= before < src_hi
                    and dst_lo <= after < dst_hi
                )
                if not relocated:
                    self._fail(
                        "values-bit-exact",
                        f"{var} in {thread.frames[i].function} changed "
                        f"{before!r} -> {after!r} without being a stack "
                        "pointer relocation",
                        thread,
                        {"var": var, "before": before, "after": after},
                    )
                if not any(sp <= after < cfa for sp, cfa in extents):
                    self._fail(
                        "pointers-inside-live-frames",
                        f"{var} in {thread.frames[i].function} relocated to "
                        f"{after:#x}, outside every live frame",
                        thread,
                        {"var": var, "after": after,
                         "extents": [(hex(a), hex(b)) for a, b in extents]},
                    )

    # ------------------------------------------------------ round trip

    def _check_roundtrip(self, thread, src: _StackSnapshot, site: int) -> None:
        """Transform back (B->A), assert bit-exact restoration, undo."""
        b_frames = list(thread.frames)
        b_regs = dict(thread.regs)
        b_half = thread.stack.half
        lo, hi = src.bounds  # the half the return trip will rewrite
        mem_snap = self.space.snapshot_range(lo, hi)
        try:
            try:
                StackTransformer.transform(self, thread, src.isa_name, site)
            except TransformError as exc:
                self._fail(
                    "roundtrip-transformable",
                    f"return transform to {src.isa_name} failed: {exc}",
                    thread,
                )
            back_live = self._live_state(thread, site)
            back_buffers = self._buffer_state(thread)
            for i, frame in enumerate(thread.frames):
                if frame.cfa != src.frames[i]["cfa"]:
                    self._fail(
                        "roundtrip-layout",
                        f"frame {frame.function} returned to CFA "
                        f"{frame.cfa:#x}, originally {src.frames[i]['cfa']:#x}",
                        thread,
                    )
            if [v for v in back_live] != [v for v in src.live]:
                self._fail(
                    "roundtrip-values-bit-exact",
                    "live slots/registers not restored bit-exactly by "
                    "the A->B->A round trip",
                    thread,
                    {"expected": src.live, "got": back_live},
                )
            if back_buffers != src.buffers:
                self._fail(
                    "roundtrip-buffers-bit-exact",
                    "stack buffers not restored bit-exactly by the "
                    "A->B->A round trip",
                    thread,
                    {"expected": src.buffers, "got": back_buffers},
                )
            for reg in (src.regfile.sp, src.regfile.fp):
                if reg in src.regs and thread.regs.get(reg) != src.regs[reg]:
                    self._fail(
                        "roundtrip-registers",
                        f"register {reg} came back as "
                        f"{thread.regs.get(reg)!r}, originally "
                        f"{src.regs[reg]!r}",
                        thread,
                    )
        finally:
            # Undo the speculative return trip: the caller must observe
            # exactly the state the real A->B transform produced.
            thread.frames = b_frames
            thread.regs = b_regs
            if thread.stack.half != b_half:
                thread.stack.switch_halves()
            self.space.restore_range(lo, hi, mem_snap)
