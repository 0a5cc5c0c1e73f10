"""Property-based tests (hypothesis) on the core invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import Toolchain
from repro.compiler.frame import build_frame_layout
from repro.ir import FunctionBuilder, Module
from repro.isa import ARM64, X86_64
from repro.isa.types import ValueType as VT
from repro.kernel.dsm import LostPageError
from repro.kernel.messages import MessagingLayer
from repro.linker import IsaObject, Symbol, align_symbols
from repro.linker.layout import DEFAULT_VM_MAP, PAGE_SIZE, align_up
from repro.machine.interconnect import make_dolphin_pxh810
from repro.runtime.address_space import AddressSpace
from repro.runtime.heap import HeapAllocator
from repro.sim.trace import TimeSeries
from repro.validate.dsm_checker import ValidatedDsmService

from tests.helpers import X86, run_to_completion

SLOW = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ------------------------------------------------------------ alignment

@st.composite
def symbol_lists(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    names = [f"fn{i}" for i in range(n)]
    sizes_a = [draw(st.integers(min_value=1, max_value=4096)) for _ in range(n)]
    sizes_b = [draw(st.integers(min_value=1, max_value=4096)) for _ in range(n)]
    return names, sizes_a, sizes_b


@given(symbol_lists())
@SLOW
def test_alignment_invariants(data):
    names, sizes_a, sizes_b = data
    arm = IsaObject("arm64")
    x86 = IsaObject("x86_64")
    for name, sa, sb in zip(names, sizes_a, sizes_b):
        arm.add_symbol(Symbol(name, ".text", sa, 16, is_function=True))
        x86.add_symbol(Symbol(name, ".text", sb, 16, is_function=True))
    layout = align_symbols([arm, x86], DEFAULT_VM_MAP)
    placed = layout.in_section(".text")
    # (1) every symbol padded to at least its largest per-ISA size
    for p in placed:
        assert p.padded_size >= max(p.sizes.values())
    # (2) strictly increasing, non-overlapping addresses
    for a, b in zip(placed, placed[1:]):
        assert a.end <= b.address
    # (3) all addresses aligned
    for p in placed:
        assert p.address % 16 == 0


# ---------------------------------------------------------------- frames

@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=10),
    st.lists(st.integers(min_value=8, max_value=512), max_size=4),
)
@SLOW
def test_frame_layout_invariants(n_saved, n_locals, buffer_sizes):
    for isa in (ARM64, X86_64):
        pool = [r.name for r in isa.regfile.callee_saved()][:n_saved]
        locals_ = [f"v{i}" for i in range(n_locals)]
        buffers = {f"b{i}": align_up(s, 8) for i, s in enumerate(buffer_sizes)}
        layout = build_frame_layout(isa, pool, locals_, buffers)
        assert layout.frame_size % isa.cc.stack_alignment == 0
        # Every depth is inside the frame.
        depths = (
            list(layout.slot_depths.values())
            + list(layout.saved_reg_depths.values())
            + [d for d, _ in layout.buffer_depths.values()]
        )
        for d in depths:
            assert 0 < d <= layout.frame_size
        # No two slots collide.
        assert len(set(depths)) == len(depths)


# --------------------------------------------------- migration roundtrip

@st.composite
def small_programs(draw):
    """A random arithmetic program with calls and a work burst."""
    seed = draw(st.integers(min_value=0, max_value=2**31))
    n = draw(st.integers(min_value=1, max_value=6))
    consts = [draw(st.integers(min_value=-1000, max_value=1000)) for _ in range(4)]
    return seed, n, consts


@given(small_programs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_migration_never_changes_result(program, migrate_at):
    seed, n, consts = program

    def build():
        m = Module("prop")
        g = m.function("mix", [("x", VT.I64)], VT.I64)
        fb = FunctionBuilder(g)
        acc = fb.local("acc", VT.I64, init=consts[0])
        with fb.for_range("i", 0, n) as i:
            fb.work(60_000_000, "int_alu")
            t = fb.binop("mul", i, consts[1], VT.I64)
            t = fb.binop("add", t, consts[2], VT.I64)
            fb.binop_into(acc, "xor", acc, t, VT.I64)
        fb.ret(acc)
        main = m.function("main", [], VT.I64)
        fb = FunctionBuilder(main)
        r = fb.call("mix", [consts[3]], VT.I64)
        fb.syscall("print", [r])
        fb.ret(0)
        m.entry = "main"
        return m

    ref, _, _ = run_to_completion(build(), start=X86)
    migrated, code, _ = run_to_completion(build(), start=X86, migrate_at=migrate_at)
    assert migrated == ref
    assert code == 0


# ------------------------------------------------------------------- dsm

KERNELS = ["a", "b", "c"]
DSM_PAGES = 16
ALIASED = range(6, 8)  # a per-ISA .text hole inside the data pages

dsm_ops = st.one_of(
    st.tuples(
        st.just("access"), st.sampled_from(KERNELS),
        st.integers(min_value=0, max_value=DSM_PAGES - 1), st.booleans(),
    ),
    st.tuples(
        st.just("range"), st.sampled_from(KERNELS),
        st.integers(min_value=0, max_value=DSM_PAGES * PAGE_SIZE - 1),
        st.integers(min_value=1, max_value=6 * PAGE_SIZE), st.booleans(),
    ),
    st.tuples(st.just("cleanup"), st.sampled_from(KERNELS)),
    st.tuples(st.just("scrub"), st.sampled_from(KERNELS)),
)


def _validated_dsm(backup, fenced=()):
    """A checked service on KERNELS over DSM_PAGES pages with an aliased
    hole; the ``fenced`` kernels died before the process started."""
    space = AddressSpace()
    space.map_region(0, PAGE_SIZE * ALIASED.start, "data")
    space.map_region(
        PAGE_SIZE * ALIASED.start, PAGE_SIZE * len(ALIASED), "text",
        aliased=True,
    )
    space.map_region(
        PAGE_SIZE * ALIASED.stop, PAGE_SIZE * (DSM_PAGES - ALIASED.stop),
        "heap",
    )
    messaging = MessagingLayer(make_dolphin_pxh810())
    messaging.fenced.update(fenced)
    home = min(set(KERNELS) - set(fenced))
    return ValidatedDsmService(
        space, messaging, home, machines=KERNELS, backup=backup
    )


@given(st.booleans(), st.lists(dsm_ops, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_dsm_single_writer_invariant(backup, ops):
    """Random accesses, bulk pulls across extent and aliased boundaries,
    cleanups and scrubs: the extent directory stays in lock-step with
    the per-page shadow model after every step (ValidatedDsmService
    raises on the first divergence), and single-writer holds."""
    dsm = _validated_dsm(backup)
    dead = set()
    for op in ops:
        kind, kernel = op[0], op[1]
        if kernel in dead:
            continue
        try:
            if kind == "access":
                pages = [op[2]]
                assert dsm.access(kernel, op[2] * PAGE_SIZE, op[3]) >= 0.0
            elif kind == "range":
                base, span, write = op[2], op[3], op[4]
                pages = range(base // PAGE_SIZE,
                              (base + span - 1) // PAGE_SIZE + 1)
                cost, moved = dsm.ensure_range(kernel, base, span, write)
                assert cost >= 0.0 and 0 <= moved <= len(pages)
            elif kind == "cleanup":
                dsm.all_threads_migrated_cleanup(kernel)
                continue
            else:
                if len(dead) < len(KERNELS) - 1:
                    # A crash fences the kernel before the scrub.
                    dsm.messaging.fenced.add(kernel)
                    dsm.scrub_dead_kernel(kernel)
                    dead.add(kernel)
                continue
        except LostPageError:
            continue
        write = op[-1]
        for page in pages:
            sharers = dsm.sharers_of(page)
            if page in ALIASED:
                assert not sharers  # local everywhere, never tracked
            elif write:
                # Single-writer: after a write the writer is the only holder.
                assert sharers == {kernel}
                assert dsm.owner_of(page * PAGE_SIZE) == kernel
            else:
                assert kernel in sharers
                # The owner always holds a valid copy.
                assert dsm.owner_of(page * PAGE_SIZE) in sharers


@given(
    st.booleans(),
    st.sampled_from([None] + KERNELS),
    st.lists(dsm_ops, min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_dsm_fault_is_the_one_page_pull(backup, dead_at_start, ops):
    """A page fault is the one-page case of a bulk pull.

    Two checked services take the same random operations from live
    kernels: accesses, bulk pulls, cleanups, and crashes (fence, then
    scrub).  One serves each access through ``access``, the other as a
    one-page ``ensure_range``.  A kernel may be dead before the process
    starts.  Both stay in lock-step with their shadow models, route no
    message at a fenced kernel (that raises), and keep the same
    directory, lost pages, counters, parties and epoch after every
    step: only the wire time of the two entry points differs."""
    fenced = () if dead_at_start is None else (dead_at_start,)
    paged, pulled = _validated_dsm(backup, fenced), _validated_dsm(backup, fenced)
    dead = set(fenced)
    for op in ops:
        kind, kernel = op[0], op[1]
        if kernel in dead:
            continue
        if kind == "scrub":
            if len(dead) < len(KERNELS) - 1:
                for dsm in (paged, pulled):
                    dsm.messaging.fenced.add(kernel)
                    dsm.scrub_dead_kernel(kernel)
                dead.add(kernel)
            continue
        lost = []
        for dsm in (paged, pulled):
            try:
                if kind == "access" and dsm is paged:
                    dsm.access(kernel, op[2] * PAGE_SIZE, op[3])
                elif kind == "access":
                    dsm.ensure_range(kernel, op[2] * PAGE_SIZE, 1, op[3])
                elif kind == "range":
                    dsm.ensure_range(kernel, *op[2:])
                else:
                    dsm.all_threads_migrated_cleanup(kernel)
                lost.append(None)
            except LostPageError as exc:
                lost.append((exc.page, exc.dead_kernel))
        assert lost[0] == lost[1]
        assert paged.extents() == pulled.extents()
        assert paged.lost_pages == pulled.lost_pages
        assert paged.stats == pulled.stats
        assert paged.last_parties == pulled.last_parties
        assert paged.epoch == pulled.epoch


# ------------------------------------------------------------------ heap

@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=4096), st.booleans()),
        min_size=1,
        max_size=30,
    )
)
@SLOW
def test_heap_never_overlaps(ops):
    heap = HeapAllocator(AddressSpace())
    live = {}
    for size, free_something in ops:
        if free_something and live:
            addr = next(iter(live))
            heap.free(addr)
            del live[addr]
        else:
            addr = heap.alloc(size)
            for other, other_size in live.items():
                assert addr + size <= other or other + other_size <= addr
            live[addr] = align_up(size, heap.GRAIN)


# ----------------------------------------------------------------- trace

@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=10.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=2,
        max_size=30,
    )
)
@SLOW
def test_integral_bounded_by_extremes(increments):
    ts = TimeSeries("p")
    t = 0.0
    for dt, v in increments:
        t += dt
        ts.append(t, v)
    span = ts.times[-1] - ts.times[0]
    total = ts.integrate()
    assert min(ts.values) * span - 1e-6 <= total <= max(ts.values) * span + 1e-6
