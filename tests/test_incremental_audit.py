"""Incremental Property-1 certification across load/replace events.

The :class:`IncrementalCertifier` maintains the cost certificate as a
*delta* per code event instead of re-auditing the whole program. Its
correctness contract has three legs, each pinned here:

* **delta == rebuild** — after any sequence of load/replace events, the
  certifier's :meth:`snapshot` is bit-equal to a from-scratch
  :func:`audit_program` of the final function table. Fuzzed over 200+
  random event sequences across three strategies, driven through
  ``Program.define_at_runtime`` exactly the way the VM drives it.
* **executed runs reconcile** — attached to a live VM over generated
  dynamic programs, the run's counters validate against
  :meth:`dynamic_certificate` with zero Property-1 violations, and the
  snapshot still equals a rebuild of ``vm.program`` (the VM executes a
  private copy of dynamic programs — the *final* table lives there).
* **the monotone floor is load-bearing** — replacing a checked body
  with a check-free one must not retroactively assert that no checks
  ran. The snapshot alone would do exactly that; the dynamic
  certificate's floored coefficients must not.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from tests.generators import dynamic_programs
from repro.analysis import IncrementalCertifier, audit_program, reconcile
from repro.bytecode import BytecodeBuilder, Op, Program
from repro.bytecode.verifier import verify_program
from repro.instrument import BlockCountInstrumentation
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.vm import VM

FUZZ_STRATEGIES = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)

#: Sequences per strategy; 3 x 70 = 210 fuzzed event sequences total.
SEQUENCES_PER_STRATEGY = 70


def _loopy(name: str, iterations: int, step: int):
    """1-param helper with a counted loop (so its bound has backedges)."""
    b = BytecodeBuilder(name, num_params=1)
    i = b.new_local()
    acc = b.new_local()
    loop, done = b.new_label(), b.new_label()
    b.push(0).store(i).load(0).store(acc)
    b.label(loop)
    b.load(i).push(iterations).emit(Op.LT).jz(done)
    b.load(acc).push(step).emit(Op.MUL).push(1).emit(Op.ADD)
    b.push(0xFFFF).emit(Op.AND).store(acc)
    b.load(i).push(1).emit(Op.ADD).store(i)
    b.jump(loop)
    b.label(done)
    b.load(acc).ret()
    return b.build()


def _flat(name: str, multiplier: int):
    """1-param loop-free helper (its bound has no backedges)."""
    b = BytecodeBuilder(name, num_params=1)
    b.load(0).push(multiplier).emit(Op.MUL).push(1).emit(Op.ADD).ret()
    return b.build()


def _fuzz_base_program() -> Program:
    """A dynamic program shape for event fuzzing: a static kernel plus a
    pool of loadable templates, all 1-param so every (template, target)
    replacement pair is arity-valid."""
    m = BytecodeBuilder("main", num_params=0)
    m.push(3).call("kernel").ret()
    program = Program(
        [m.build(), _loopy("kernel", 4, 3)],
        entry="main",
        loadables=[
            _loopy("l0", 3, 5),
            _loopy("l1", 6, 7),
            _flat("l2", 9),
            _flat("l3", 11),
            _loopy("l4", 2, 13),
        ],
    )
    verify_program(program)
    return program


def _transform(program: Program, strategy: Strategy) -> Program:
    framework = SamplingFramework(strategy)
    return framework.transform(program, BlockCountInstrumentation())


def _drive_random_events(transformed, certifier, rng, count):
    """Apply *count* random load/replace events through
    ``define_at_runtime``, forwarding changed-events to the certifier
    exactly as ``VM._dyn_load``/``_dyn_replace`` do."""
    templates = sorted(transformed.loadables)
    applied = 0
    for _ in range(count):
        template = rng.choice(templates)
        want_replace = rng.random() < 0.5
        targets = [
            name
            for name in sorted(transformed.functions)
            if name != transformed.entry
            and transformed.functions[name].num_params
            == transformed.loadables[template].num_params
        ]
        if want_replace and targets:
            target = rng.choice(targets)
            fn, changed = transformed.define_at_runtime(template, target)
            if changed:
                certifier.on_event("replace", target, template, fn)
                applied += 1
        else:
            fn, changed = transformed.define_at_runtime(template)
            if changed:
                certifier.on_event("load", template, template, fn)
                applied += 1
    return applied


class TestDeltaEqualsRebuild:
    """The incremental certificate equals a from-scratch audit of the
    final program, for 200+ fuzzed load/replace sequences."""

    @pytest.mark.parametrize("strategy", FUZZ_STRATEGIES)
    def test_fuzzed_sequences(self, strategy):
        total_events = 0
        for seed in range(SEQUENCES_PER_STRATEGY):
            rng = random.Random(seed * 31 + 7)
            transformed = _transform(_fuzz_base_program(), strategy)
            certifier = IncrementalCertifier.from_program(
                transformed, strategy=strategy.value, label="fuzz"
            )
            total_events += _drive_random_events(
                transformed, certifier, rng, rng.randint(3, 14)
            )
            rebuild = audit_program(
                transformed, strategy=strategy.value, label="fuzz"
            )
            context = f"{strategy.value} seed={seed}"
            assert certifier.ok, context
            assert rebuild.ok, context
            assert (
                certifier.snapshot().as_dict()
                == rebuild.certificate.as_dict()
            ), context
        # the fuzz must actually exercise the delta path
        assert total_events > SEQUENCES_PER_STRATEGY

    def test_no_events_snapshot_equals_seed_audit(self):
        transformed = _transform(
            _fuzz_base_program(), Strategy.FULL_DUPLICATION
        )
        certifier = IncrementalCertifier.from_program(
            transformed, strategy="full-duplication", label="fuzz"
        )
        rebuild = audit_program(
            transformed, strategy="full-duplication", label="fuzz"
        )
        assert certifier.snapshot().as_dict() == rebuild.certificate.as_dict()
        assert certifier.loads == 0 and certifier.replaces == 0

    def test_event_records_carry_bound_deltas(self):
        transformed = _transform(
            _fuzz_base_program(), Strategy.PARTIAL_DUPLICATION
        )
        certifier = IncrementalCertifier.from_program(
            transformed, strategy="partial-duplication", label="fuzz"
        )
        fn, changed = transformed.define_at_runtime("l0")
        assert changed
        certifier.on_event("load", "l0", "l0", fn)
        fn, changed = transformed.define_at_runtime("l2", "l0")
        assert changed
        certifier.on_event("replace", "l0", "l2", fn)
        assert certifier.loads == 1 and certifier.replaces == 1
        load_event, replace_event = certifier.events
        assert load_event["previous_bound"] is None
        assert replace_event["previous_bound"] == load_event["bound"]
        assert replace_event["function"] == "l0"
        assert replace_event["template"] == "l2"


class TestExecutedRunsReconcile:
    """Attached to a live VM, the certifier's dynamic certificate
    validates the run's counters (Property 1) and its snapshot matches a
    rebuild of the table the VM actually finished with."""

    @pytest.mark.parametrize("strategy", FUZZ_STRATEGIES)
    @settings(max_examples=10, deadline=None)
    @given(program=dynamic_programs())
    def test_generated_dynamic_programs(self, strategy, program):
        transformed = _transform(program, strategy)
        certifier = IncrementalCertifier.from_program(
            transformed, strategy=strategy.value, label="run"
        )
        vm = VM(transformed, trigger=CounterTrigger(7))
        certifier.attach(vm)
        result = vm.run()
        assert certifier.ok
        # dynamic programs execute on a private copy: vm.program holds
        # the final function table, the input program is untouched
        rebuild = audit_program(vm.program, strategy=strategy.value,
                                label="run")
        assert certifier.snapshot().as_dict() == rebuild.certificate.as_dict()
        verdict = reconcile(certifier.dynamic_certificate(), result.stats)
        assert verdict.ok, str(verdict)

    @pytest.mark.parametrize("strategy", FUZZ_STRATEGIES)
    def test_fuzz_program_executed(self, strategy):
        transformed = _transform(_fuzz_base_program(), strategy)
        certifier = IncrementalCertifier.from_program(
            transformed, strategy=strategy.value, label="run"
        )
        vm = VM(transformed, trigger=CounterTrigger(3))
        certifier.attach(vm)
        result = vm.run()
        assert certifier.ok
        rebuild = audit_program(vm.program, strategy=strategy.value,
                                label="run")
        assert certifier.snapshot().as_dict() == rebuild.certificate.as_dict()
        assert reconcile(certifier.dynamic_certificate(), result.stats).ok


class TestMonotoneFloor:
    """Replacing a checked body with a check-free one: the final table's
    certificate says cpb == 0, but checks already executed — validating
    against the snapshot must fail, against the floored dynamic
    certificate must pass."""

    @staticmethod
    def _program():
        # loop-free main calls a loopy kernel (backedge checks fire),
        # then swaps the kernel for a loop-free body and calls it again
        m = BytecodeBuilder("main", num_params=0)
        m.push(5).call("kernel")
        m.replacefn("kernel", "kernel_flat").emit(Op.ADD)
        m.push(5).call("kernel").emit(Op.ADD)
        m.ret()
        program = Program(
            [m.build(), _loopy("kernel", 8, 3)],
            entry="main",
            loadables=[_flat("kernel_flat", 7)],
        )
        verify_program(program)
        return program

    def test_snapshot_alone_would_be_unsound(self):
        strategy = Strategy.CHECKS_ONLY_BACKEDGE
        transformed = _transform(self._program(), strategy)
        certifier = IncrementalCertifier.from_program(
            transformed, strategy=strategy.value, label="floor"
        )
        vm = VM(transformed, trigger=CounterTrigger(1))
        certifier.attach(vm)
        result = vm.run()
        assert result.stats.checks_executed > 0
        assert certifier.replaces == 1
        snapshot = certifier.snapshot()
        dynamic = certifier.dynamic_certificate()
        # final table is loop-free everywhere: the snapshot certifies a
        # zero backedge budget...
        assert snapshot.checks_per_backedge == 0
        assert not reconcile(snapshot, result.stats).ok
        # ...but the retired kernel's checks already ran; the monotone
        # floor keeps the coefficient at its historical maximum
        assert dynamic.checks_per_backedge == 1
        assert reconcile(dynamic, result.stats).ok
        # and the snapshot still equals the from-scratch rebuild — the
        # floor lives in dynamic_certificate, not in the bounds
        rebuild = audit_program(vm.program, strategy=strategy.value,
                                label="floor")
        assert snapshot.as_dict() == rebuild.certificate.as_dict()

    def test_floor_never_decreases_across_events(self):
        strategy = Strategy.CHECKS_ONLY_BACKEDGE
        transformed = _transform(self._program(), strategy)
        certifier = IncrementalCertifier.from_program(
            transformed, strategy=strategy.value, label="floor"
        )
        fn, changed = transformed.define_at_runtime(
            "kernel_flat", "kernel"
        )
        assert changed
        certifier.on_event("replace", "kernel", "kernel_flat", fn)
        assert certifier.events[-1]["checks_per_backedge"] == 1
        assert certifier.dynamic_certificate().checks_per_backedge == 1
        assert certifier.snapshot().checks_per_backedge == 0


class TestSeededFromAuditCertificate:
    """A certifier seeded from the pre-run audit's certificate (what the
    harness does once per cell family) is indistinguishable from one
    that re-audits every function with ``from_program``: before the run
    and after the run's load/replace events."""

    @pytest.mark.parametrize("workload", ["dynload", "osr"])
    @pytest.mark.parametrize(
        "strategy", [Strategy.FULL_DUPLICATION, Strategy.NO_DUPLICATION]
    )
    def test_seeded_equals_from_program(self, workload, strategy):
        from repro.workloads import get_workload

        transformed = _transform(get_workload(workload).compile(), strategy)
        report = audit_program(
            transformed, strategy=strategy.value, label=workload
        )
        certifiers = [
            IncrementalCertifier.from_program(
                transformed, strategy=strategy.value, label=workload
            ),
            IncrementalCertifier.from_certificate(
                report.certificate, strategy=strategy.value, label=workload
            ),
        ]
        rebuilt, seeded = certifiers
        assert seeded.snapshot() == rebuilt.snapshot()
        assert seeded.dynamic_certificate() == rebuilt.dynamic_certificate()
        for certifier in certifiers:
            vm = VM(transformed, trigger=CounterTrigger(50))
            certifier.attach(vm)
            vm.run()
        assert seeded.loads + seeded.replaces > 0
        assert seeded.events == rebuilt.events
        assert seeded.snapshot() == rebuilt.snapshot()
        assert seeded.dynamic_certificate() == rebuilt.dynamic_certificate()
