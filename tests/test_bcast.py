"""Tests for Algorithm BCAST and the generalized Fibonacci tree (Section 3)."""

from fractions import Fraction

import pytest

from repro.core.bcast import (
    BroadcastTree,
    bcast_schedule,
    bcast_tree,
)
from repro.core.fibfunc import postal_F, postal_f
from repro.errors import InvalidParameterError

from tests.grids import LAMBDAS, SIZES


class TestSchedule:
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", SIZES)
    def test_valid_and_optimal(self, lam, n):
        """The schedule validates against the postal model and finishes at
        exactly f_lambda(n) (Theorem 6)."""
        s = bcast_schedule(n, lam)  # validates on construction
        assert s.completion_time() == postal_f(lam, n)

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", SIZES)
    def test_send_count(self, lam, n):
        # a broadcast to n processors needs exactly n-1 sends
        assert len(bcast_schedule(n, lam, validate=False)) == n - 1

    def test_start_offset(self):
        s = bcast_schedule(14, "5/2", start=3)
        assert s.completion_time() == 3 + Fraction(15, 2)

    def test_n1_empty(self):
        assert len(bcast_schedule(1, 2)) == 0

    def test_bad_n(self):
        with pytest.raises(InvalidParameterError):
            bcast_schedule(0, 2)

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    def test_informed_count_bounded_by_F(self, lam):
        """Lemma 5 instantiated: the schedule's informed-count function
        never exceeds F_lambda(t) — and meets it at the end."""
        n = 40
        s = bcast_schedule(n, lam, validate=False)
        a = s.informed_count()
        for k in range(0, 4 * int(s.completion_time()) + 1):
            t = Fraction(k, 4)
            assert a(t) <= postal_F(lam, t)

    def test_root_sends_every_unit(self, lam):
        """The root sends at consecutive integer times 0,1,2,... with no
        idling — the optimal strategy of Section 3."""
        s = bcast_schedule(40, lam, validate=False)
        times = [e.send_time for e in s.sends_by(0)]
        assert times == list(range(len(times)))

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    def test_every_processor_sends_immediately(self, lam):
        """Every non-leaf processor's first send happens exactly when it
        is informed (no idle gap)."""
        s = bcast_schedule(64, lam, validate=False)
        arrivals = s.arrivals()
        for proc in range(64):
            sends = s.sends_by(proc)
            if sends:
                assert sends[0].send_time == arrivals[(proc, 0)]


class TestFigure1:
    """The paper's Figure 1: MPS(14, 2.5)."""

    def setup_method(self):
        self.tree = bcast_tree(14, Fraction(5, 2))

    def test_height(self):
        assert self.tree.height() == Fraction(15, 2)

    def test_root_first_child_is_p9(self):
        # t=0: j = F(f(14) - 1) = F(6.5) = 9
        assert self.tree.children_of(0)[0] == 9

    def test_p9_covers_upper_range(self):
        # p9 broadcasts to p9..p13 (5 processors)
        covered = set()
        stack = [9]
        while stack:
            p = stack.pop()
            covered.add(p)
            stack.extend(self.tree.children_of(p))
        assert covered == {9, 10, 11, 12, 13}

    def test_p9_informed_at_5_halves(self):
        assert self.tree.node(9).informed_at == Fraction(5, 2)

    def test_degrees_decrease_toward_leaves(self):
        # nodes close to the root have higher degree
        assert len(self.tree.children_of(0)) == max(
            len(self.tree.children_of(p)) for p in range(14)
        )

    def test_all_fourteen_nodes(self):
        assert len(self.tree) == 14
        assert all(p in self.tree for p in range(14))


class TestTreeStructure:
    def test_lambda1_is_binomial(self):
        """For lambda = 1 the tree is the binomial tree: the root of a
        2^k-node tree has k children with subtree sizes 2^{k-1}, ..., 1."""
        tree = bcast_tree(16, 1)

        def subtree_size(p):
            return 1 + sum(subtree_size(c) for c in tree.children_of(p))

        sizes = sorted(
            (subtree_size(c) for c in tree.children_of(0)), reverse=True
        )
        assert sizes == [8, 4, 2, 1]

    def test_lambda2_is_fibonacci_tree(self):
        """For lambda = 2, subtree sizes of the root's children follow
        Fibonacci numbers."""
        tree = bcast_tree(13, 2)  # 13 = Fib(7)

        def subtree_size(p):
            return 1 + sum(subtree_size(c) for c in tree.children_of(p))

        sizes = [subtree_size(c) for c in tree.children_of(0)]
        # root sends to nodes covering 5, 3, 2, 1, 1 (13 = 1+5+3+2+1+1)
        assert sum(sizes) == 12
        assert sizes[0] == 5

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    def test_parents_consistent(self, lam):
        tree = bcast_tree(30, lam)
        for p in range(30):
            for c in tree.children_of(p):
                assert tree.parent_of(c) == p
        assert tree.parent_of(tree.root) is None

    def test_depth_and_preorder(self):
        tree = bcast_tree(14, Fraction(5, 2))
        assert tree.depth_of(0) == 0
        assert tree.depth_of(9) == 1
        order = tree.preorder()
        assert order[0] == 0
        assert sorted(order) == list(range(14))

    def test_tree_of_multimessage_schedule(self):
        from repro.core.multi import repeat_schedule

        s = repeat_schedule(8, 3, 2)
        t0 = BroadcastTree.of(s, msg=0)
        t2 = BroadcastTree.of(s, msg=2)
        # REPEAT uses the same tree for every message
        for p in range(8):
            assert t0.children_of(p) == t2.children_of(p)
