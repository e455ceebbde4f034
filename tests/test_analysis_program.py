"""Whole-program model tests: symbol tables, call resolution, call graph."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.callgraph import build_call_graph
from repro.analysis.core import ModuleSource
from repro.analysis.program import (
    DEFAULT_MACHINE_FIELDS,
    Program,
    module_name_for,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def _module(text: str, path: str = "mod.py") -> ModuleSource:
    return ModuleSource(path, textwrap.dedent(text))


# -- module naming ------------------------------------------------------------------


def test_module_name_for_real_package_files():
    assert module_name_for(SRC / "simulator" / "engine.py") == "repro.simulator.engine"
    assert module_name_for(SRC / "core" / "machine.py") == "repro.core.machine"
    assert module_name_for(SRC / "analysis" / "__init__.py") == "repro.analysis"


def test_module_name_for_non_package_paths_fall_back_to_stem(tmp_path):
    loose = tmp_path / "probe.py"
    loose.write_text("x = 1\n")
    assert module_name_for(loose) == "probe"
    assert module_name_for("<string>") == "<string>"


def test_module_name_for_synthetic_package(tmp_path):
    pkg = tmp_path / "pkg" / "sub"
    pkg.mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    target = pkg / "leaf.py"
    target.write_text("x = 1\n")
    assert module_name_for(target) == "pkg.sub.leaf"


# -- symbol tables ------------------------------------------------------------------


def test_symbol_table_indexes_functions_methods_and_nested_defs():
    program = Program([_module(
        """
        X = 1

        def top():
            def inner():
                pass

        class Cls:
            def meth(self):
                pass
        """
    )])
    mod = program.modules["mod"]
    assert set(mod.functions) == {"top", "top.inner", "Cls.meth"}
    assert mod.functions["Cls.meth"].cls is mod.classes["Cls"]
    assert mod.functions["top"].qualname == "mod.top"
    assert "X" in mod.globals


def test_symbol_table_descends_into_conditional_blocks():
    program = Program([_module(
        """
        try:
            def fallback():
                pass
        except ImportError:
            pass

        if True:
            class Guarded:
                def meth(self):
                    pass
        """
    )])
    mod = program.modules["mod"]
    assert "fallback" in mod.functions
    assert "Guarded.meth" in mod.functions


def test_name_collisions_fall_back_to_path_keys():
    a = _module("def f(): pass\n", path="a/mod.py")
    b = _module("def g(): pass\n", path="b/mod.py")
    program = Program([a, b])
    assert len(program.modules) == 2
    assert {f.node.name for f in program.iter_functions()} == {"f", "g"}


# -- call resolution ----------------------------------------------------------------


def test_resolve_call_through_import_map():
    program = Program([_module(
        """
        import numpy as np
        from os.path import join as pjoin

        def use():
            np.random.default_rng()
            pjoin("a", "b")
        """
    )])
    mod = program.modules["mod"]
    fn = mod.functions["use"].node
    calls = {}
    import ast
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            calls[ast.unparse(node.func)] = program.resolve_call(mod, node.func)
    assert calls["np.random.default_rng"] == "numpy.random.default_rng"
    assert calls["pjoin"] == "os.path.join"


def test_resolve_call_self_method_and_module_local():
    program = Program([_module(
        """
        def helper():
            pass

        class Engine:
            def _schedule(self):
                pass
            def run(self):
                self._schedule()
                helper()
        """
    )])
    mod = program.modules["mod"]
    import ast
    run = mod.functions["Engine.run"]
    resolved = {
        program.resolve_call(mod, node.func, cls=run.cls)
        for node in ast.walk(run.node)
        if isinstance(node, ast.Call)
    }
    assert resolved == {"mod.Engine._schedule", "mod.helper"}


# -- call graph ---------------------------------------------------------------------


def test_call_graph_edges_and_reachability():
    program = Program([_module(
        """
        def a():
            b()

        def b():
            c()

        def c():
            pass
        """
    )])
    graph = build_call_graph(program)
    assert "mod.b" in graph.callees("mod.a")
    assert graph.callers("mod.c") == {"mod.b"}
    assert graph.reachable_from("mod.a") == {"mod.b", "mod.c"}


def test_call_graph_excludes_nested_function_bodies():
    program = Program([_module(
        """
        def outer():
            def inner():
                target()
        def target():
            pass
        """
    )])
    graph = build_call_graph(program)
    assert "mod.target" not in graph.callees("mod.outer")
    assert "mod.target" in graph.callees("mod.outer.inner")


def test_call_graph_over_real_tree_resolves_engine_methods():
    sources = [
        ModuleSource(p, p.read_text())
        for p in sorted((SRC / "simulator").glob("*.py"))
    ]
    program = Program(sources)
    graph = build_call_graph(program)
    assert len(graph) > 100
    # both dynamic loops complete receives through the reference helper
    callers = graph.callers("repro.simulator.engine.Engine._complete_recv")
    assert any("_run_ready_exact" in c for c in callers)
    assert any("_step_until_blocked" in c for c in callers)


# -- MachineParams discovery --------------------------------------------------------


def test_machine_param_fields_discovered_from_real_tree():
    src = SRC / "core" / "machine.py"
    program = Program([ModuleSource(src, src.read_text())])
    fields = program.machine_param_fields()
    assert set(DEFAULT_MACHINE_FIELDS) <= set(fields)


def test_machine_param_fields_fall_back_without_the_class():
    program = Program([_module("x = 1\n")])
    assert program.machine_param_fields() == DEFAULT_MACHINE_FIELDS
