"""Architecture-contract rules (CACHE/SWEEP/DRIVER).

These rules encode the cross-layer invariants introduced by PRs 3–6 —
the persistent cache's keying discipline, the sweep pipeline's process
fan-out, and the driver layer's
obligation to thread scheduler/fault-plan configuration into the engine.
Each is a *whole-program* property: no single file shows the violation,
so they live on the :class:`~repro.analysis.program.Program` model.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.core import Finding, Rule, register
from repro.analysis.program import FunctionInfo, ModuleInfo, Program

__all__ = [
    "MachineFingerprintRule",
    "WorkerGlobalCaptureRule",
    "DriverThreadingRule",
]

#: function-name fragments that mark identity/key derivation code
_KEYISH_NAMES = ("key", "header", "canonical", "fingerprint", "checkpoint")

#: call tails that derive cache shard keys (a dict argument is a payload)
_KEY_CALL_TAILS = ("key_for", "shard_key", "block_shard_key", "cache_key")


def _machine_bases(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter names of *fn* that hold a MachineParams."""
    names: set[str] = set()
    for arg in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]:
        ann = arg.annotation
        annotated = (
            (isinstance(ann, ast.Name) and ann.id == "MachineParams")
            or (isinstance(ann, ast.Attribute) and ann.attr == "MachineParams")
        )
        if annotated or "machine" in arg.arg:
            names.add(arg.arg)
    return names


@register
class MachineFingerprintRule(Rule):
    """CACHE001: machine fingerprints in key derivation must cover every field.

    The disk cache's ``_canonical`` folds *every* ``MachineParams`` field
    into the shard key automatically (dataclass-generic), but any code
    that fingerprints a machine *by hand* — a checkpoint header, a
    hand-rolled cache key — can silently drop fields.  Two machines
    differing only in ``th`` or ``routing`` would then collide: a sweep
    resumed against the wrong checkpoint, a cache hit for the wrong
    machine.  Any dict that enumerates two or more MachineParams
    attributes inside key/checkpoint-derivation code must enumerate all
    of them (discovered from the ``MachineParams`` class itself, so a
    new field extends the contract automatically).
    """

    rule_id = "CACHE001"
    name = "machine-fingerprint"
    description = (
        "hand-built machine fingerprints in key/checkpoint code must "
        "include every MachineParams field"
    )
    severity = "error"
    fix = (
        "Serialize the whole dataclass (dataclasses.asdict(machine)) or "
        "pass the MachineParams object itself to the canonical keyer "
        "instead of enumerating fields by hand."
    )
    example = (
        "def _checkpoint_header(machine, seed):\n"
        "    return {'machine': {'ts': machine.ts, 'tw': machine.tw}}  # th/routing/... dropped\n"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        fields = set(program.machine_param_fields())
        for fn in program.iter_functions():
            keyish = any(part in fn.node.name.lower() for part in _KEYISH_NAMES)
            bases = _machine_bases(fn.node)
            reported: set[str] = set()  # one finding per base (nested dicts overlap)
            for dict_node in self._candidate_dicts(fn, keyish):
                for base, finding in self._check_dict(fn, dict_node, bases, fields):
                    if base not in reported:
                        reported.add(base)
                        yield finding

    def _candidate_dicts(
        self, fn: FunctionInfo, keyish: bool
    ) -> Iterator[ast.Dict]:
        """Dict literals in key-derivation position within *fn*."""
        seen: set[int] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.split(".")[-1] in _KEY_CALL_TAILS:
                    for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                        if isinstance(arg, ast.Dict) and id(arg) not in seen:
                            seen.add(id(arg))
                            yield arg
            elif keyish and isinstance(node, ast.Dict) and id(node) not in seen:
                seen.add(id(node))
                yield node

    def _check_dict(
        self,
        fn: FunctionInfo,
        dict_node: ast.Dict,
        bases: set[str],
        fields: set[str],
    ) -> Iterator[tuple[str, Finding]]:
        for base in bases:
            read = {
                sub.attr
                for sub in ast.walk(dict_node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == base
            } & fields
            if len(read) >= 2 and read != fields:
                missing = ", ".join(sorted(fields - read))
                yield base, self.finding(
                    fn.module.source,
                    dict_node,
                    f"partial MachineParams fingerprint in {fn.qualname}(): "
                    f"reads {{{', '.join(sorted(read))}}} but drops "
                    f"{{{missing}}}; machines differing only in a dropped "
                    "field would collide",
                )


@register
class WorkerGlobalCaptureRule(Rule):
    """SWEEP001: pool worker functions must not read runtime-mutated globals.

    Sweep blocks fan out over worker *processes*; with the ``fork`` start
    method a worker inherits whatever the parent's module globals held at
    fork time, and with ``spawn`` it re-imports them fresh.  A worker
    reading a module global that some code mutates at runtime therefore
    computes different results depending on start method, fork timing,
    and prior in-process history — the exact nonreproducibility the
    crash-safe sweep pipeline exists to rule out.  Globals that are only
    ever built at import time (model registries, constant tables) are
    fine and not flagged.
    """

    rule_id = "SWEEP001"
    name = "worker-global-capture"
    description = (
        "functions submitted to process pools must not read module "
        "globals that are mutated at runtime"
    )
    severity = "warn"
    fix = (
        "Pass the value as an explicit argument through submit()/map() "
        "so every worker sees the same snapshot regardless of start "
        "method and fork timing."
    )
    example = (
        "_config = {}\n"
        "def tune(k, v): _config[k] = v          # runtime mutation\n"
        "def worker(n): return run(n, **_config)  # captured by the pool worker\n"
    )

    _SUBMIT_TAILS = ("submit", "map", "imap", "imap_unordered", "apply_async")
    _MUTATORS = ("append", "update", "add", "insert", "setdefault", "pop", "clear", "extend", "remove")

    def check_program(self, program: Program) -> Iterator[Finding]:
        for mod in program.modules.values():
            mutated = self._mutated_globals(mod)
            for worker in self._workers(mod):
                read = self._global_reads(worker.node, set(mod.globals))
                for name in sorted(read & mutated):
                    yield self.finding(
                        mod.source,
                        worker.node,
                        f"pool worker {worker.qualname}() reads module global "
                        f"{name!r}, which is mutated at runtime; pass it as "
                        "an argument instead (fork/spawn divergence)",
                    )

    def _workers(self, mod: ModuleInfo) -> Iterator[FunctionInfo]:
        """Module-level functions passed to executor submit/map calls."""
        seen: set[str] = set()
        for node in ast.walk(mod.source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] not in self._SUBMIT_TAILS:
                continue
            for arg in node.args[:1]:
                if isinstance(arg, ast.Name) and arg.id in mod.functions:
                    if arg.id not in seen:
                        seen.add(arg.id)
                        yield mod.functions[arg.id]

    @staticmethod
    def _global_reads(fn: ast.AST, global_names: set[str]) -> set[str]:
        local: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local.add(node.id)
            elif isinstance(node, ast.arg):
                local.add(node.arg)
        return {
            node.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in global_names
            and node.id not in local
        }

    def _mutated_globals(self, mod: ModuleInfo) -> set[str]:
        """Module globals mutated inside some function (not at import time)."""
        out: set[str] = set()
        names = set(mod.globals)
        for fn in mod.functions.values():
            declared_global: set[str] = set()
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    base = node.func.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id in names
                        and node.func.attr in self._MUTATORS
                    ):
                        out.add(base.id)
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for t in targets:
                        if (
                            isinstance(t, ast.Subscript)
                            and isinstance(t.value, ast.Name)
                            and t.value.id in names
                        ):
                            out.add(t.value.id)
                        elif isinstance(t, ast.Name) and t.id in declared_global:
                            out.add(t.id)
        return out


@register
class DriverThreadingRule(Rule):
    """DRIVER001: every algorithm driver threads one ``config=`` to Engine.

    The three-scheduler bit-identity contract and the fault-injection
    layer are only testable through drivers that *expose* them: a driver
    that hardwires ``Engine(topo, machine)`` pins its algorithm to the
    default :class:`~repro.simulator.engine.SimConfig`, so resilience
    experiments and scheduler-equivalence fuzzing silently skip it.
    Every public ``run_*`` driver under ``repro/algorithms/`` must accept
    a ``config`` parameter, and every ``Engine(...)`` construction there
    must pass ``config=``.
    """

    rule_id = "DRIVER001"
    name = "driver-threading"
    description = "algorithm drivers must accept and forward config= to Engine"
    severity = "error"
    fix = (
        "Add a `config: SimConfig = SimConfig()` keyword-only parameter "
        "and pass `config=config` to the Engine(...) construction (or to "
        "the shared driver helper)."
    )
    example = (
        "def run_newalg(A, B, p, machine, *, trace=False):\n"
        "    sim = Engine(topo, machine).run(factories)  # not threadable\n"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        for mod in program.modules.values():
            if "repro/algorithms/" not in mod.source.posix_path:
                continue
            for local, fn in mod.functions.items():
                if "." not in local and local.startswith("run_"):
                    args = fn.node.args
                    params = {
                        a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                    }
                    if "config" not in params:
                        yield self.finding(
                            mod.source,
                            fn.node,
                            f"driver {fn.qualname}() does not accept config; "
                            "scheduler-equivalence and resilience sweeps "
                            "cannot reach this algorithm",
                        )
            for fn in mod.functions.values():
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    name = dotted_name(node.func)
                    if name is None or name.split(".")[-1] != "Engine":
                        continue
                    if not any(kw.arg == "config" for kw in node.keywords):
                        yield self.finding(
                            mod.source,
                            node,
                            f"Engine(...) in {fn.qualname}() does not forward "
                            "config=; the driver pins its algorithm to the "
                            "defaults",
                        )
