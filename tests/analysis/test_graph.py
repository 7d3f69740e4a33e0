"""The whole-program layer: module naming, summaries, the import graph."""

import ast

import pytest

from repro.analysis import Program, module_name, summarize_module
from repro.analysis.base import ModuleInfo


def _summary(path, source):
    return summarize_module(
        ModuleInfo(path=path, source=source, tree=ast.parse(source))
    )


def _program(sources):
    return Program(
        root="<memory>",
        summaries={
            path: _summary(path, source) for path, source in sources.items()
        },
    )


#: Each RL108 entry module's pruned closure on the real tree, pinned
#: as it stood before the package re-exports went lazy: the lazy
#: loaders' literal imports must keep every edge.  ``repro.exec`` left
#: the Eq. 2 closures when the batch engine stopped fanning out to
#: threads.
REAL_CLOSURES = {
    "CAMPAIGN_CODE_MODULES": {
        "repro.channel.channel",
        "repro.channel.fading",
        "repro.channel.linkbudget",
        "repro.channel.mobility",
        "repro.channel.pathloss",
        "repro.exec",
        "repro.faults.outage",
        "repro.faults.plan",
        "repro.mac.aggregation",
        "repro.mac.dcf",
        "repro.mac.frames",
        "repro.measurements.batch",
        "repro.net.batchlink",
        "repro.net.iperf",
        "repro.net.link",
        "repro.obs",
        "repro.perf",
        "repro.phy.error",
        "repro.phy.mcs",
        "repro.phy.phy80211n",
        "repro.phy.rate_control",
        "repro.sim.monitor",
        "repro.sim.random",
        "repro.store",
    },
    "CHAOS_CODE_MODULES": {
        "repro.airframe.battery",
        "repro.airframe.platform",
        "repro.channel.channel",
        "repro.channel.fading",
        "repro.channel.linkbudget",
        "repro.channel.mobility",
        "repro.channel.pathloss",
        "repro.core.delay",
        "repro.core.failure",
        "repro.core.mission",
        "repro.core.optimizer",
        "repro.core.scenario",
        "repro.core.strategies",
        "repro.core.throughput",
        "repro.core.utility",
        "repro.engine",
        "repro.engine.batch",
        "repro.engine.cache",
        "repro.faults.chaos",
        "repro.faults.injector",
        "repro.faults.outage",
        "repro.faults.plan",
        "repro.geo.coords",
        "repro.mac.aggregation",
        "repro.mac.dcf",
        "repro.mac.frames",
        "repro.measurements.datasets",
        "repro.mission.ferry",
        "repro.net.link",
        "repro.net.packets",
        "repro.net.retry",
        "repro.net.udp",
        "repro.obs",
        "repro.obs.events",
        "repro.phy.error",
        "repro.phy.mcs",
        "repro.phy.phy80211n",
        "repro.phy.rate_control",
        "repro.sim.kernel",
        "repro.sim.monitor",
        "repro.sim.random",
    },
    "RELAY_CODE_MODULES": {
        "repro.airframe.platform",
        "repro.core.delay",
        "repro.core.failure",
        "repro.core.mission",
        "repro.core.optimizer",
        "repro.core.scenario",
        "repro.core.throughput",
        "repro.core.utility",
        "repro.engine",
        "repro.engine.batch",
        "repro.engine.cache",
        "repro.measurements.datasets",
        "repro.obs",
        "repro.relay.batch",
        "repro.relay.chain",
        "repro.relay.solver",
    },
    "SOLVER_CODE_MODULES": {
        "repro.airframe.platform",
        "repro.core.delay",
        "repro.core.failure",
        "repro.core.mission",
        "repro.core.optimizer",
        "repro.core.scenario",
        "repro.core.throughput",
        "repro.core.utility",
        "repro.engine",
        "repro.engine.batch",
        "repro.engine.cache",
        "repro.measurements.datasets",
        "repro.obs",
    },
}


#: The lazy package ``__init__``s' own edges, as they stood when every
#: re-export was eager.  A loader using ``importlib.import_module`` on
#: a string would drop its edge here.
REAL_INIT_EDGES = {
    "repro": {"repro.api", "repro.core"},
    "repro.airframe": {
        "repro.airframe.autopilot",
        "repro.airframe.battery",
        "repro.airframe.dynamics",
        "repro.airframe.platform",
    },
    "repro.core": {
        "repro.core.analysis",
        "repro.core.deadline",
        "repro.core.delay",
        "repro.core.failure",
        "repro.core.mission",
        "repro.core.optimizer",
        "repro.core.planner",
        "repro.core.scenario",
        "repro.core.schedule",
        "repro.core.strategies",
        "repro.core.throughput",
        "repro.core.utility",
    },
    "repro.faults": {
        "repro.faults.chaos",
        "repro.faults.injector",
        "repro.faults.outage",
        "repro.faults.plan",
        "repro.net.retry",
    },
    "repro.measurements": {
        "repro.measurements.batch",
        "repro.measurements.campaign",
        "repro.measurements.datasets",
        "repro.measurements.fitting",
        "repro.measurements.validate",
    },
    "repro.obs": {
        "repro.obs.context",
        "repro.obs.events",
        "repro.obs.manifest",
        "repro.obs.metrics",
        "repro.obs.summarize",
        "repro.obs.trace",
    },
    "repro.relay": {
        "repro.relay.batch",
        "repro.relay.campaign",
        "repro.relay.chain",
        "repro.relay.solver",
        "repro.relay.transfer",
    },
}


class TestModuleName:
    def test_plain_module(self):
        assert module_name("engine/batch.py") == "repro.engine.batch"

    def test_top_level_module(self):
        assert module_name("api.py") == "repro.api"

    def test_package_init(self):
        assert module_name("core/__init__.py") == "repro.core"

    def test_root_init(self):
        assert module_name("__init__.py") == "repro"

    def test_non_python(self):
        assert module_name("data/fits.json") is None


class TestSummaries:
    def test_symbols_and_classes(self):
        summary = _summary(
            "core/delay.py",
            "import math\n"
            "LIMIT_S = 3.0\n"
            "def delay(): ...\n"
            "class Model:\n"
            "    def predict(self, x_m): ...\n",
        )
        assert summary.module == "repro.core.delay"
        assert summary.symbols["LIMIT_S"] == "constant"
        assert summary.symbols["delay"] == "function"
        assert summary.symbols["Model"] == "class"
        assert summary.symbols["math"] == "import"
        (cls,) = summary.classes
        assert cls.name == "Model"
        assert cls.methods["predict"].params == ["x_m"]

    def test_str_tuple_constants_recorded(self):
        summary = _summary(
            "store/fingerprint.py",
            'SOLVER_CODE_MODULES = (\n    "repro.engine.batch",\n)\n'
            "NOT_STRINGS = (1, 2)\n",
        )
        assert summary.str_tuples["SOLVER_CODE_MODULES"].values == [
            "repro.engine.batch"
        ]
        assert "NOT_STRINGS" not in summary.str_tuples

    def test_shim_init_detected(self):
        shim = _summary(
            "core/__init__.py",
            '"""Docs."""\nfrom .delay import delay\n__all__ = ["delay"]\n',
        )
        assert shim.is_init and shim.is_shim
        substantive = _summary(
            "faults/__init__.py",
            "from .plan import FaultPlan\nDEFAULT_SEED = 7\n",
        )
        assert substantive.is_init and not substantive.is_shim
        plain = _summary("core/delay.py", "X = 1\n")
        assert not plain.is_init and not plain.is_shim

    def test_lazy_function_local_imports_recorded(self):
        summary = _summary(
            "engine/batch.py",
            "def run():\n    from ..core import delay\n    return delay\n",
        )
        assert any(r.level == 2 for r in summary.imports)


class TestImportGraph:
    def test_absolute_and_relative_edges(self):
        program = _program(
            {
                "engine/batch.py": (
                    "import repro.core.delay\n"
                    "from ..core.optimizer import solve\n"
                    "from . import cache\n"
                ),
                "engine/cache.py": "X = 1\n",
                "core/delay.py": "Y = 1\n",
                "core/optimizer.py": "def solve(): ...\n",
            }
        )
        edges = program.graph.edges["repro.engine.batch"]
        assert edges == {
            "repro.core.delay",
            "repro.core.optimizer",
            "repro.engine.cache",
        }

    def test_from_import_symbol_edges_to_defining_module(self):
        # ``from repro.core import delay``: delay is a submodule here,
        # so the edge lands on it, not on the package init.
        program = _program(
            {
                "engine/batch.py": "from repro.core import delay\n",
                "core/__init__.py": "from .delay import helper\n",
                "core/delay.py": "def helper(): ...\n",
            }
        )
        assert program.graph.edges["repro.engine.batch"] == {
            "repro.core.delay"
        }

    def test_from_import_symbol_falls_back_to_package(self):
        # ``helper`` is a symbol, not a submodule: the edge goes to the
        # package init, whose own re-export edges carry the closure on.
        program = _program(
            {
                "engine/batch.py": "from repro.core import helper\n",
                "core/__init__.py": "from .delay import helper\n",
                "core/delay.py": "def helper(): ...\n",
            }
        )
        graph = program.graph
        assert graph.edges["repro.engine.batch"] == {"repro.core"}
        assert graph.edges["repro.core"] == {"repro.core.delay"}
        closure = graph.closure("repro.engine.batch")
        assert "repro.core.delay" in closure

    def test_pep562_loader_imports_are_edges(self):
        # A lazy package ``__init__`` re-exports through a PEP 562
        # ``__getattr__``; its literal function-local import is still
        # an edge, so the closure of a consumer reaches the submodule.
        program = _program(
            {
                "measurements/__init__.py": (
                    "from .datasets import FIT\n"
                    "def __getattr__(name):\n"
                    "    if name == 'run_campaign':\n"
                    "        from . import batch as source\n"
                    "    else:\n"
                    "        raise AttributeError(name)\n"
                    "    return getattr(source, name)\n"
                ),
                "measurements/batch.py": "from repro.net import link\n",
                "measurements/datasets.py": "FIT = 1\n",
                "net/link.py": "X = 1\n",
                "cli.py": "from repro.measurements import run_campaign\n",
            }
        )
        graph = program.graph
        assert graph.edges["repro.measurements"] == {
            "repro.measurements.batch",
            "repro.measurements.datasets",
        }
        assert not graph.by_module["repro.measurements"].is_shim
        closure = graph.closure("repro.cli")
        assert {"repro.measurements.batch", "repro.net.link"} <= closure

    def test_external_imports_ignored(self):
        program = _program(
            {"engine/batch.py": "import numpy as np\nfrom time import time\n"}
        )
        assert program.graph.edges["repro.engine.batch"] == set()

    def test_closure_is_transitive_and_inclusive(self):
        program = _program(
            {
                "a.py": "from repro import b\n",
                "b.py": "from repro import c\n",
                "c.py": "X = 1\n",
            }
        )
        assert program.graph.closure("repro.a") == {
            "repro.a",
            "repro.b",
            "repro.c",
        }

    def test_closure_prunes_outgoing_edges_only(self):
        # The pruned module appears in the closure, but nothing that is
        # reachable only through it does.
        program = _program(
            {
                "a.py": "from repro.store import store\n",
                "store/__init__.py": "",
                "store/store.py": "from repro import b\n",
                "b.py": "X = 1\n",
            }
        )
        closure = program.graph.closure(
            "repro.a", prune=("repro.store",)
        )
        assert "repro.store.store" in closure
        assert "repro.b" not in closure

    def test_package_root_pruned_exactly_not_as_prefix(self):
        program = _program(
            {
                "__init__.py": "from repro import heavy\n",
                "a.py": "import repro\nfrom repro import b\n",
                "b.py": "X = 1\n",
                "heavy.py": "Y = 1\n",
            }
        )
        closure = program.graph.closure("repro.a", prune=("repro",))
        assert "repro.b" in closure  # not prefix-pruned
        assert "repro" in closure  # the root itself is included...
        assert "repro.heavy" not in closure  # ...but not traversed

    def test_symbol_lookup(self):
        program = _program({"core/delay.py": "def delay(): ...\n"})
        assert program.graph.symbol("repro.core.delay", "delay") == "function"
        assert program.graph.symbol("repro.core.delay", "nope") is None
        assert program.graph.symbol("repro.missing", "x") is None


class TestGraphOnRealTree:
    @pytest.fixture(scope="class")
    def program(self):
        from repro.analysis import default_root

        root = default_root()
        summaries = {}
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root).as_posix()
            source = path.read_text(encoding="utf-8")
            summaries[rel] = _summary(rel, source)
        return Program(root=str(root), summaries=summaries)

    def test_solver_entry_reaches_core(self, program):
        closure = program.graph.closure("repro.engine.batch")
        assert "repro.core.delay" in closure
        assert "repro.core.optimizer" in closure

    def test_graph_covers_all_modules(self, program):
        graph = program.graph
        assert len(graph.modules()) == len(
            [s for s in program.summaries.values() if s.module]
        )

    @pytest.mark.parametrize("tuple_name", sorted(REAL_CLOSURES))
    def test_entry_closures_unchanged(self, program, tuple_name):
        from repro.analysis.graphrules import ENTRY_MODULES, PRUNE_PREFIXES

        closure = program.graph.closure(
            ENTRY_MODULES[tuple_name], prune=PRUNE_PREFIXES
        )
        assert closure == REAL_CLOSURES[tuple_name]

    @pytest.mark.parametrize("package", sorted(REAL_INIT_EDGES))
    def test_lazy_init_edges_unchanged(self, program, package):
        assert program.graph.edges[package] == REAL_INIT_EDGES[package]
