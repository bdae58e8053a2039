"""Tests for the vertex-program DSL (repro.api)."""

import numpy as np
import pytest

from repro.api import vertex_program
from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.errors import KernelError
from repro.graph.generators import erdos_renyi
from repro.hardware.capabilities import check_offload
from repro.hardware.catalog import UPMEM_PIM
from repro.runtime.config import SystemConfig
from support import kernel_reference as reference


def weighted_degree_program():
    return vertex_program(
        name="weighted-degree",
        reduce="sum",
        uses_weights=True,
        init=lambda graph, source: {
            "props": {"wdeg": np.zeros(graph.num_vertices)},
            "frontier": np.arange(graph.num_vertices),
        },
        traverse=lambda state, src, dst, w: w,
        apply=lambda state, touched, reduced: (
            state.prop("wdeg").__setitem__(touched, reduced),
            touched,
        )[1],
        single_shot=True,
        result="wdeg",
    )


def dsl_pagerank(damping=0.85, iters=10):
    def init(graph, source):
        n = graph.num_vertices
        deg = graph.out_degrees.astype(np.float64)
        inv = np.zeros(n)
        inv[deg > 0] = 1.0 / deg[deg > 0]
        return {
            "props": {"rank": np.full(n, 1.0 / n), "inv": inv},
            "frontier": np.arange(n),
        }

    def traverse(state, src, dst, w):
        return state.prop("rank")[src] * state.prop("inv")[src]

    def apply(state, touched, reduced):
        n = state.num_vertices
        rank = state.prop("rank")
        new = np.full(n, (1 - damping) / n)
        new[touched] += damping * reduced
        rank[:] = new
        return touched

    return vertex_program(
        name="dsl-pagerank",
        init=init,
        traverse=traverse,
        apply=apply,
        result="rank",
        frontier=lambda state, changed: np.arange(state.num_vertices),
        max_iterations=iters,
    )


class TestDSLPrograms:
    def test_single_shot_aggregation(self, weighted_er):
        run = DisaggregatedSimulator(SystemConfig(num_memory_nodes=4)).run(
            weighted_er, weighted_degree_program()
        )
        assert run.num_iterations == 1
        expected = np.zeros(weighted_er.num_vertices)
        src, dst = weighted_er.edge_array()
        np.add.at(expected, dst, weighted_er.weights)
        assert np.allclose(run.result_property(), expected)

    def test_dsl_pagerank_matches_builtin(self, tiny_rmat):
        run = DisaggregatedNDPSimulator(SystemConfig(num_memory_nodes=4)).run(
            tiny_rmat, dsl_pagerank(iters=8), max_iterations=8
        )
        expected = reference.pagerank(tiny_rmat, max_iterations=8)
        assert np.allclose(run.result_property(), expected)

    def test_movement_accounting_applies(self, tiny_rmat):
        run = DisaggregatedNDPSimulator(SystemConfig(num_memory_nodes=4)).run(
            tiny_rmat, dsl_pagerank(iters=3), max_iterations=3
        )
        assert run.total_host_link_bytes > 0
        assert all(s.offloaded for s in run.iterations)

    def test_capability_annotations_enforced(self):
        program = vertex_program(
            name="fp-heavy",
            init=lambda g, s: {"props": {"x": np.zeros(g.num_vertices)}},
            traverse=lambda st, s, d, w: np.ones(s.size),
            apply=lambda st, t, r: t,
            result="x",
            needs_fp=True,
        )
        assert not check_offload(program, UPMEM_PIM).allowed
        int_program = vertex_program(
            name="int-only",
            init=lambda g, s: {"props": {"x": np.zeros(g.num_vertices)}},
            traverse=lambda st, s, d, w: np.ones(s.size),
            apply=lambda st, t, r: t,
            result="x",
            needs_fp=False,
        )
        assert check_offload(int_program, UPMEM_PIM).allowed

    def test_source_handling(self, tiny_er):
        program = vertex_program(
            name="rooted",
            needs_source=True,
            init=lambda g, source: {
                "props": {"seen": np.zeros(g.num_vertices)},
                "frontier": np.asarray([source]),
            },
            traverse=lambda st, s, d, w: np.ones(s.size),
            apply=lambda st, t, r: t[st.prop("seen")[t] == 0],
            result="seen",
            max_iterations=2,
        )
        with pytest.raises(KernelError, match="requires a source"):
            program.initial_state(tiny_er)
        state = program.initial_state(tiny_er, source=3)
        assert list(state.frontier) == [3]


class TestDSLValidation:
    def _base_kwargs(self):
        return dict(
            init=lambda g, s: {"props": {"x": np.zeros(g.num_vertices)}},
            traverse=lambda st, s, d, w: np.ones(s.size),
            apply=lambda st, t, r: t,
            result="x",
        )

    def test_empty_name(self):
        with pytest.raises(KernelError):
            vertex_program(name="", **self._base_kwargs())

    def test_init_must_return_props(self, tiny_er):
        program = vertex_program(
            name="bad",
            init=lambda g, s: {"frontier": []},
            traverse=lambda st, s, d, w: np.ones(s.size),
            apply=lambda st, t, r: t,
            result="x",
        )
        with pytest.raises(KernelError, match="'props'"):
            program.initial_state(tiny_er)

    def test_prop_shape_checked(self, tiny_er):
        program = vertex_program(
            name="bad",
            init=lambda g, s: {"props": {"x": np.zeros(3)}},
            traverse=lambda st, s, d, w: np.ones(s.size),
            apply=lambda st, t, r: t,
            result="x",
        )
        with pytest.raises(KernelError, match="shape"):
            program.initial_state(tiny_er)

    def test_result_prop_must_exist(self, tiny_er):
        kwargs = self._base_kwargs()
        kwargs["result"] = "missing"
        program = vertex_program(name="bad", **kwargs)
        with pytest.raises(KernelError, match="result property"):
            program.initial_state(tiny_er)

    def test_traverse_shape_checked(self, tiny_er):
        program = vertex_program(
            name="bad",
            init=lambda g, s: {"props": {"x": np.zeros(g.num_vertices)}},
            traverse=lambda st, s, d, w: np.ones(3),
            apply=lambda st, t, r: t,
            result="x",
        )
        sim = DisaggregatedSimulator(SystemConfig(num_memory_nodes=2))
        from repro.errors import KernelError as KE

        with pytest.raises(KE, match="traverse returned"):
            sim.run(tiny_er, program, max_iterations=1)

    def test_scalars_passed_through(self, tiny_er):
        program = vertex_program(
            name="scalars",
            init=lambda g, s: {
                "props": {"x": np.zeros(g.num_vertices)},
                "scalars": {"budget": 7},
            },
            traverse=lambda st, s, d, w: np.ones(s.size),
            apply=lambda st, t, r: t,
            result="x",
        )
        state = program.initial_state(tiny_er)
        assert state.scalars["budget"] == 7.0

    def test_converged_hook(self, tiny_er):
        program = vertex_program(
            name="stopper",
            init=lambda g, s: {"props": {"x": np.zeros(g.num_vertices)}},
            traverse=lambda st, s, d, w: np.ones(s.size),
            apply=lambda st, t, r: t,
            result="x",
            converged=lambda state: state.iteration >= 2,
            max_iterations=50,
        )
        run = DisaggregatedSimulator(SystemConfig(num_memory_nodes=2)).run(
            tiny_er, program
        )
        assert run.num_iterations == 2


class TestDSLVertexIds:
    """Vertex ids a DSL callable returns are checked where they enter."""

    @staticmethod
    def _run(ids, where):
        # ``where`` names the callable that returns ``ids``; the others
        # return valid ids.
        ids = np.asarray(ids)
        program = vertex_program(
            name="ids",
            init=lambda g, s: {
                "props": {"x": np.zeros(g.num_vertices)},
                "frontier": ids if where == "init" else np.arange(g.num_vertices),
            },
            traverse=lambda st, s, d, w: np.ones(s.size),
            apply=lambda st, t, r: ids if where == "apply" else t,
            frontier=(lambda st, changed: ids) if where == "frontier" else None,
            result="x",
            max_iterations=3,
        )
        graph = erdos_renyi(64, 448, seed=3)
        DisaggregatedSimulator(SystemConfig(num_memory_nodes=2)).run(graph, program)

    @pytest.mark.parametrize("where", ["init", "frontier", "apply"])
    def test_repeated_id_rejected(self, where):
        with pytest.raises(KernelError, match=f"{where} returned repeated"):
            self._run([5, 5], where)

    @pytest.mark.parametrize("where", ["init", "frontier", "apply"])
    def test_negative_id_rejected(self, where):
        with pytest.raises(KernelError, match=rf"{where} returned .* outside \[0, 64\)"):
            self._run([-1], where)

    @pytest.mark.parametrize("where", ["init", "frontier", "apply"])
    def test_id_past_the_end_rejected(self, where):
        with pytest.raises(KernelError, match=rf"{where} returned .* outside \[0, 64\)"):
            self._run([64], where)

    def test_unsorted_ids_allowed(self):
        self._run([9, 2, 40, 0], "init")
