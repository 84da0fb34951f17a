"""Differential harness: the swap engine against its reference kernels.

Runs :func:`repro.core.swap.swap_edges` on two engines — the default
``vectorized`` kernels and the ``serial`` reference kernels that
:func:`tests.drills.use_reference_engine` patches in (the sequential
Knuth shuffle and one-key-at-a-time TestAndSet) — over a matrix of
graphs × null-model spaces × thread counts, and asserts:

- **identical degree sequences** (swaps preserve degrees exactly, so
  every engine must return the input's degree sequence);
- **per-space simplicity invariants** (no loops / no multi-edges in the
  spaces that forbid them, defects never created in the others);
- **exact output equality** — TestAndSet verdicts are pure set
  membership with first-occurrence semantics, which is schedule
  independent, so for a fixed seed both engines must produce the
  *same graph*, not merely statistically similar ones;
- **statistically indistinguishable acceptance rates** across seeds (the
  weaker guarantee the paper's evaluation relies on, asserted separately
  so it keeps holding even if exact equality is ever relaxed).
"""

import numpy as np
import pytest

from repro.core.swap import SwapStats, swap_edges
from repro.graph.edgelist import EdgeList
from repro.parallel.hashtable import pack_edges
from repro.parallel.runtime import ParallelConfig
from tests.drills import use_reference_engine

ENGINES = ("vectorized", "serial")

SPACES = ("simple", "loopy", "multigraph", "loopy_multigraph")

THREAD_MATRIX = [1, 2, 4]


def simple_graph(seed: int, n: int = 60, m: int = 150) -> EdgeList:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, 3 * m)
    v = rng.integers(0, n, 3 * m)
    keep = u != v
    g = EdgeList(u[keep], v[keep], n).simplify()
    return EdgeList(g.u[:m], g.v[:m], n)


def defective_graph(seed: int) -> EdgeList:
    """A multigraph with self loops and duplicate edges."""
    g = simple_graph(seed, n=40, m=90)
    u = np.concatenate([g.u, g.u[:6], [1, 2, 3]])
    v = np.concatenate([g.v, g.v[:6], [1, 2, 3]])
    return EdgeList(u, v, g.n)


GRAPHS = {
    "simple": simple_graph(0),
    "defective": defective_graph(1),
}


def sorted_keys(g: EdgeList) -> np.ndarray:
    return np.sort(pack_edges(g.u, g.v))


def swap_on(engine, monkeypatch, *args, **kwargs) -> EdgeList:
    """``swap_edges(*args, **kwargs)`` on ``engine``."""
    with monkeypatch.context() as mp:
        if engine == "serial":
            use_reference_engine(mp)
        return swap_edges(*args, **kwargs)


class TestBackendEquivalence:
    """serial ≡ vectorized over the invariant matrix."""

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("threads", THREAD_MATRIX)
    def test_outputs_identical(self, graph_name, space, threads, monkeypatch):
        graph = GRAPHS[graph_name]
        config = ParallelConfig(threads=threads, seed=97)
        outputs = {
            engine: swap_on(engine, monkeypatch, graph, 3, config, space=space)
            for engine in ENGINES
        }
        ref = outputs["vectorized"]
        for engine, out in outputs.items():
            np.testing.assert_array_equal(
                out.u, ref.u, err_msg=f"{engine} diverged ({graph_name}/{space})"
            )
            np.testing.assert_array_equal(
                out.v, ref.v, err_msg=f"{engine} diverged ({graph_name}/{space})"
            )

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("space", SPACES)
    def test_degrees_and_space_invariants(self, graph_name, space, monkeypatch):
        graph = GRAPHS[graph_name]
        config = ParallelConfig(threads=2, seed=5)
        for engine in ENGINES:
            out = swap_on(engine, monkeypatch, graph, 4, config, space=space)
            np.testing.assert_array_equal(
                graph.degree_sequence(), out.degree_sequence()
            )
            # defects can only be destroyed, never created
            if space in ("simple", "loopy"):
                assert out.count_multi_edges() <= graph.count_multi_edges()
            if space in ("simple", "multigraph"):
                assert out.count_self_loops() <= graph.count_self_loops()
            if space == "simple" and graph.is_simple():
                assert out.is_simple()

    def test_acceptance_rates_statistically_indistinguishable(self, monkeypatch):
        """Across seeds, mean acceptance per engine agrees closely."""
        graph = GRAPHS["simple"]
        rates = {e: [] for e in ENGINES}
        for seed in range(6):
            for engine in ENGINES:
                stats = SwapStats()
                swap_on(
                    engine, monkeypatch, graph, 2,
                    ParallelConfig(threads=2, seed=seed), stats=stats,
                )
                rates[engine].append(stats.acceptance_rate)
        means = {e: np.mean(r) for e, r in rates.items()}
        for engine in ENGINES:
            assert abs(means[engine] - means["vectorized"]) < 0.02, means

    def test_maintained_keys_match_repacked_registration(self, monkeypatch):
        """The swap chain's maintained key array (permuted alongside the
        edges and patched per accepted swap, never re-packed wholesale)
        must register exactly the keys a from-scratch
        ``pack_edges(u, v)`` of the current edges would.

        Checked directly: a spy table captures every iteration's
        registration batch (the first TestAndSet after each clear) and
        compares it against a fresh pack of the edges current at that
        point — the input graph for iteration 0, the previous
        iteration's end-of-round callback snapshot afterwards."""
        from repro.core import swap as swap_mod

        captured: list = []
        edges_at: dict[int, tuple] = {}

        class SpyTable(swap_mod.ConcurrentEdgeHashTable):
            def clear(self):
                captured.append("clear")
                super().clear()

            def test_and_set(self, keys):
                captured.append(np.array(keys, copy=True))
                return super().test_and_set(keys)

        monkeypatch.setattr(swap_mod, "ConcurrentEdgeHashTable", SpyTable)
        graph = GRAPHS["simple"]
        swap_edges(
            graph, 6,
            ParallelConfig(threads=2, seed=41),
            callback=lambda it, g: edges_at.setdefault(it, (g.u, g.v)),
        )
        registrations = []
        after_clear = False
        for item in captured:
            if isinstance(item, str):
                after_clear = True
                continue
            if after_clear:
                registrations.append(item)
            after_clear = False
        assert len(registrations) == 6
        for it, reg in enumerate(registrations):
            # registration keys at iteration `it` pack the edges as they
            # stood entering the round: the input graph at it=0, the end
            # of round it-1 (the callback snapshot, which is in the same
            # permuted order the maintained array tracks) afterwards
            u, v = (graph.u, graph.v) if it == 0 else edges_at[it - 1]
            np.testing.assert_array_equal(
                reg, pack_edges(u, v),
                err_msg=f"maintained keys drifted at iteration {it}",
            )
