"""S-DPST construction and queries (Definitions 2-5, Theorem 1)."""

import pytest

from repro.dpst import ASYNC, FINISH, SCOPE, STEP, Dpst, DpstBuilder, DpstNode
from repro.dpst.tree import path_between
from repro.errors import RepairError
from repro.lang import parse
from repro.runtime import Interpreter
from tests.conftest import build


def build_dpst(source: str, args=()):
    program = build(source)
    builder = DpstBuilder()
    Interpreter(program, builder).run(args)
    return builder.finish()


class TestConstruction:
    def test_root_is_main_task(self):
        tree = build_dpst("def main() { print(1); }")
        assert tree.root.kind == ASYNC
        assert tree.root.label == "main-task"

    def test_call_creates_scope(self):
        tree = build_dpst("def main() { print(1); }")
        call_scopes = [n for n in tree.walk()
                       if n.kind == SCOPE and n.scope_kind == "call"]
        assert len(call_scopes) == 1  # main's body

    def test_steps_are_leaves(self):
        tree = build_dpst("def main() { var x = 1; async { x = 2; } x = 3; }")
        for node in tree.walk():
            if node.kind == STEP:
                assert len(node.children) == 0

    def test_async_breaks_steps(self):
        tree = build_dpst("def main() { var a = 1; async { a = 2; } a = 3; }")
        main_scope = tree.root.children[0]
        kinds = [c.kind for c in main_scope.children]
        assert kinds == [STEP, ASYNC, STEP]

    def test_taken_if_creates_scope(self):
        tree = build_dpst("def main() { if (true) { print(1); } }")
        assert any(n.scope_kind == "if" for n in tree.walk()
                   if n.kind == SCOPE)

    def test_untaken_if_creates_no_scope(self):
        tree = build_dpst("def main() { if (false) { print(1); } }")
        assert not any(n.scope_kind in ("if", "else") for n in tree.walk()
                       if n.kind == SCOPE)

    def test_else_branch_scope(self):
        tree = build_dpst(
            "def main() { if (false) { print(1); } else { print(2); } }")
        assert any(n.scope_kind == "else" for n in tree.walk()
                   if n.kind == SCOPE)

    def test_loop_iterations_create_scopes(self):
        tree = build_dpst(
            "def main() { for (var i = 0; i < 3; i = i + 1) { print(i); } }")
        loops = [n for n in tree.walk()
                 if n.kind == SCOPE and n.scope_kind == "loop"]
        assert len(loops) == 3

    def test_empty_steps_are_elided(self):
        tree = build_dpst("def main() { }")
        # Only the root, the call scope; no zero-event steps.
        steps = tree.steps()
        assert all(s.cost > 0 or s.anchors for s in steps)

    def test_dfs_indices_are_preorder(self):
        tree = build_dpst("def main() { async { print(1); } print(2); }")
        indices = [n.index for n in tree.walk()]
        assert indices == sorted(indices)

    def test_node_count_matches_walk(self):
        tree = build_dpst("def main() { async print(1); print(2); }")
        assert tree.node_count() == len(list(tree.walk()))

    def test_counts_by_kind(self):
        tree = build_dpst(
            "def main() { finish { async print(1); } print(2); }")
        counts = tree.counts_by_kind()
        assert counts[FINISH] == 1
        assert counts[ASYNC] == 2  # the spawned task + the root main task

    def test_step_costs_accumulate(self):
        tree = build_dpst("def main() { var s = 0; s = s + 1; s = s + 2; }")
        total = sum(s.cost for s in tree.steps())
        assert total > 5

    def test_fibonacci_shape_matches_figure9(self, fib_source):
        # fib(2): Fib scope with [step, async, async, step] children.
        tree = build_dpst(fib_source, (2,))
        fib_scopes = [n for n in tree.walk() if n.kind == SCOPE
                      and n.scope_kind == "call" and len(n.children) == 4]
        assert fib_scopes, tree.render()
        kinds = [c.kind for c in fib_scopes[0].children]
        assert kinds == [STEP, ASYNC, ASYNC, STEP]

    def test_render_is_bounded(self):
        tree = build_dpst("def main() { for (var i = 0; i < 50; i = i + 1) { print(i); } }")
        text = tree.render(max_nodes=10)
        assert text.count("\n") <= 11


class TestLcaQueries:
    def _fib_tree(self, fib_source):
        return build_dpst(fib_source, (3,))

    def test_lca_of_siblings(self):
        tree = build_dpst("def main() { async print(1); async print(2); }")
        scope = tree.root.children[0]
        a1, a2 = [c for c in scope.children if c.kind == ASYNC]
        assert Dpst.lca(a1, a2) is scope

    def test_lca_with_ancestor(self):
        tree = build_dpst("def main() { async { print(1); } }")
        scope = tree.root.children[0]
        step = scope.children[0].children[0]
        assert Dpst.lca(scope, step) is scope

    def test_ns_lca_skips_scopes(self):
        tree = build_dpst("def main() { async print(1); async print(2); }")
        scope = tree.root.children[0]
        a1, a2 = [c for c in scope.children if c.kind == ASYNC]
        s1, s2 = a1.children[0], a2.children[0]
        assert Dpst.ns_lca(s1, s2) is tree.root

    def test_non_scope_children_flatten_scopes(self):
        tree = build_dpst("""
        def main() {
            if (true) {
                async print(1);
            }
            async print(2);
        }""")
        children = tree.non_scope_children(tree.root)
        assert [c.kind for c in children].count(ASYNC) == 2

    def test_non_scope_child_toward(self):
        tree = build_dpst("def main() { if (true) { async print(1); } }")
        children = tree.non_scope_children(tree.root)
        target = [c for c in children if c.kind == ASYNC][0]
        step = target.children[0]
        assert tree.non_scope_child_toward(tree.root, step) is target

    def test_non_scope_child_toward_requires_ancestry(self):
        tree = build_dpst("def main() { async print(1); async print(2); }")
        scope = tree.root.children[0]
        a1, a2 = [c for c in scope.children if c.kind == ASYNC]
        with pytest.raises(RepairError):
            tree.non_scope_child_toward(a1, a2.children[0])

    def test_path_between(self):
        tree = build_dpst("def main() { async { print(1); } }")
        scope = tree.root.children[0]
        step = scope.children[0].children[0]
        path = path_between(tree.root, step)
        assert path[0] is tree.root
        assert path[-1] is step


class TestMayHappenInParallel:
    def test_parallel_async_and_continuation(self):
        tree = build_dpst("def main() { var x = 0; async { x = 1; } x = 2; }")
        scope = tree.root.children[0]
        async_node = [c for c in scope.children if c.kind == ASYNC][0]
        async_step = async_node.children[0]
        after_step = scope.children[-1]
        assert Dpst.may_happen_in_parallel(async_step, after_step)
        # Symmetric.
        assert Dpst.may_happen_in_parallel(after_step, async_step)

    def test_finish_orders_steps(self):
        tree = build_dpst(
            "def main() { var x = 0; finish { async { x = 1; } } x = 2; }")
        finish = [n for n in tree.walk() if n.kind == FINISH][0]
        async_step = finish.children[0].children[0]
        scope = tree.root.children[0]
        after_step = scope.children[-1]
        assert not Dpst.may_happen_in_parallel(async_step, after_step)

    def test_step_not_parallel_with_itself(self):
        tree = build_dpst("def main() { print(1); }")
        step = tree.steps()[0]
        assert not Dpst.may_happen_in_parallel(step, step)

    def test_sequential_steps_not_parallel(self):
        tree = build_dpst("def main() { var x = 0; async { x = 1; } }")
        scope = tree.root.children[0]
        pre_step = scope.children[0]
        async_step = scope.children[1].children[0]
        # pre_step is before the spawn: ordered.
        assert not Dpst.may_happen_in_parallel(pre_step, async_step)

    def test_sibling_asyncs_parallel(self):
        tree = build_dpst("def main() { async print(1); async print(2); }")
        scope = tree.root.children[0]
        a1, a2 = [c for c in scope.children if c.kind == ASYNC]
        assert Dpst.may_happen_in_parallel(a1.children[0], a2.children[0])


class TestInsertFinishNode:
    def test_wrap_children(self):
        tree = build_dpst("def main() { async print(1); async print(2); }")
        scope = tree.root.children[0]
        positions = [i for i, c in enumerate(scope.children)
                     if c.kind == ASYNC]
        finish = tree.insert_finish_node(scope, positions[0], positions[-1])
        assert finish.kind == FINISH
        assert finish.parent is scope
        assert all(c.parent is finish for c in finish.children)

    def test_insert_resolves_parallelism(self):
        # Mirrors Figure 14: after wrapping the asyncs, the race pair is
        # ordered per Theorem 1.
        tree = build_dpst(
            "def main() { var x = 0; async { x = 1; } x = 2; }")
        scope = tree.root.children[0]
        async_idx = [i for i, c in enumerate(scope.children)
                     if c.kind == ASYNC][0]
        async_step = scope.children[async_idx].children[0]
        after_step = scope.children[-1]
        assert Dpst.may_happen_in_parallel(async_step, after_step)
        tree.insert_finish_node(scope, async_idx, async_idx)
        assert not Dpst.may_happen_in_parallel(async_step, after_step)

    def test_indices_renumbered(self):
        tree = build_dpst("def main() { async print(1); }")
        scope = tree.root.children[0]
        tree.insert_finish_node(scope, 0, len(scope.children) - 1)
        indices = [n.index for n in tree.walk()]
        assert indices == list(range(len(indices)))

    def test_bad_range_rejected(self):
        tree = build_dpst("def main() { print(1); }")
        with pytest.raises(RepairError):
            tree.insert_finish_node(tree.root, 0, 99)


class TestAnchors:
    def test_step_anchors_point_to_block_statements(self):
        program = build("def main() { var a = 1; var b = 2; }")
        builder = DpstBuilder()
        Interpreter(program, builder).run(())
        tree = builder.finish()
        step = tree.steps()[0]
        stmt_nids = [s.nid for s in program.main.body.stmts]
        assert step.anchors == stmt_nids

    def test_async_anchor_is_its_statement(self):
        program = build("def main() { async print(1); }")
        builder = DpstBuilder()
        Interpreter(program, builder).run(())
        tree = builder.finish()
        async_node = [n for n in tree.walk() if n.kind == ASYNC
                      and n is not tree.root][0]
        assert async_node.anchor_nid == program.main.body.stmts[0].nid
        assert async_node.block_nid == program.main.body.stmts[0].body.nid
