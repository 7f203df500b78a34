"""Property-based tests for the fusion theorems (Section 5.2).

These are the machine-checked counterparts of the paper's three theorems:

* Theorem 5.2 (correctness): ``fuse(T1, T2)`` is a supertype of both inputs
  — checked both with the syntactic subtype checker and semantically
  (membership preservation).
* Theorem 5.4 (commutativity): ``fuse(T1, T2) == fuse(T2, T1)``.
* Theorem 5.5 (associativity): grouping does not matter — the property
  that makes distributed/tree reduction and incremental fusion safe.

Plus the normality invariant ("all of our algorithms ... only generate
normal types") and idempotence on star-only types.
"""

from hypothesis import given

from repro.core.normal_form import is_normal
from repro.core.semantics import matches
from repro.core.subtyping import is_subtype
from repro.core.types import EMPTY, ArrayType
from hypothesis import strategies as st

from repro.inference.fusion import (
    collapse,
    fuse,
    fuse_all,
    fuse_multiset,
    lfuse,
    simplify,
)
from repro.inference.infer import infer_type
from tests.conftest import json_values, non_union_types, normal_types


class TestCorrectnessTheorem52:
    @given(normal_types(), normal_types())
    def test_fuse_yields_supertype_syntactically(self, t1, t2):
        t3 = fuse(t1, t2)
        assert is_subtype(t1, t3)
        assert is_subtype(t2, t3)

    @given(json_values(), json_values())
    def test_membership_preserved_through_fusion(self, v1, v2):
        """Semantic correctness on the actual pipeline: a value matching
        its own inferred type still matches the fused schema."""
        t1, t2 = infer_type(v1), infer_type(v2)
        fused = fuse(t1, t2)
        assert matches(v1, fused)
        assert matches(v2, fused)

    @given(non_union_types, non_union_types)
    def test_lfuse_yields_supertype_for_same_kind(self, t, u):
        if t.kind == u.kind:
            t3 = lfuse(t, u)
            assert is_subtype(t, t3)
            assert is_subtype(u, t3)


class TestCommutativityTheorem54:
    @given(normal_types(), normal_types())
    def test_fuse_commutes(self, t1, t2):
        assert fuse(t1, t2) == fuse(t2, t1)

    @given(non_union_types, non_union_types)
    def test_lfuse_commutes_for_same_kind(self, t, u):
        if t.kind == u.kind:
            assert lfuse(t, u) == lfuse(u, t)


class TestAssociativityTheorem55:
    @given(normal_types(), normal_types(), normal_types())
    def test_fuse_associates(self, t1, t2, t3):
        assert fuse(fuse(t1, t2), t3) == fuse(t1, fuse(t2, t3))

    @given(json_values(), json_values(), json_values())
    def test_associativity_on_inferred_types(self, v1, v2, v3):
        t1, t2, t3 = infer_type(v1), infer_type(v2), infer_type(v3)
        assert fuse(fuse(t1, t2), t3) == fuse(t1, fuse(t2, t3))

    @given(non_union_types, non_union_types, non_union_types)
    def test_lfuse_associates_for_same_kind(self, t, u, v):
        if t.kind == u.kind == v.kind:
            assert lfuse(lfuse(t, u), v) == lfuse(t, lfuse(u, v))


class TestInvariants:
    @given(normal_types(), normal_types())
    def test_fusion_preserves_normality(self, t1, t2):
        assert is_normal(fuse(t1, t2))

    @given(normal_types())
    def test_empty_is_neutral(self, t):
        assert fuse(t, EMPTY) == t
        assert fuse(EMPTY, t) == t

    @given(normal_types())
    def test_idempotent_without_positional_arrays(self, t):
        if not t.has_positional_array:
            assert fuse(t, t) == t

    @given(normal_types())
    def test_double_fusion_is_fixpoint(self, t):
        """fuse(t, t) may simplify arrays once, but is then a fixpoint."""
        once = fuse(t, t)
        assert fuse(once, once) == once

    @given(normal_types(), normal_types())
    def test_fused_size_bounded_by_inputs(self, t1, t2):
        """Fusion never blows the type up: |fuse| <= |t1| + |t2| + 1."""
        assert fuse(t1, t2).size <= t1.size + t2.size + 1


class TestCollapseProperties:
    @given(json_values())
    def test_collapse_of_inferred_array_admits_elements(self, value):
        if isinstance(value, list):
            body = collapse(infer_type(value))
            assert all(matches(v, body) for v in value)

    @given(normal_types())
    def test_simplify_widens(self, t):
        assert is_subtype(t, simplify(t))

    @given(json_values())
    def test_simplified_schema_still_admits_value(self, value):
        assert matches(value, simplify(infer_type(value)))


class TestAbsorption:
    """The law fuse_multiset relies on: self-fusion saturates."""

    @given(normal_types())
    def test_self_absorption(self, t):
        s = fuse(t, t)
        assert fuse(s, t) == s
        assert fuse(t, s) == s

    @given(st.lists(normal_types(), max_size=6))
    def test_fuse_multiset_equals_sequential(self, types):
        """Deduplicated fusion is exact, not an approximation."""
        assert fuse_multiset(types) == fuse_all(types)

    @given(normal_types(), st.integers(min_value=1, max_value=5))
    def test_duplicate_count_beyond_two_is_irrelevant(self, t, n):
        assert fuse_all([t] * (n + 1)) == fuse_all([t, t])


class TestMemoizedFusionMetamorphic:
    """Metamorphic laws through the kernel's pooled fast path.

    The optimized path (interning + the memoized n-ary ``Fuse``) must
    be *observationally identical* to the plain recursive ``fuse``: for
    any relation that holds of the reference implementation, the same
    relation must hold when every operand first travels through a
    :class:`~repro.core.interning.TypeInterner` and the fusion runs in
    the kernel's ``_Fuse``.
    """

    @staticmethod
    def _memo():
        from repro.core.interning import TypeInterner
        from repro.inference.kernel import _Fuse

        interner = TypeInterner()
        return interner, _Fuse(interner, {})

    @given(normal_types(), normal_types())
    def test_memo_fuse_equals_plain_fuse(self, t1, t2):
        interner, memo = self._memo()
        assert memo([interner.intern(t1), interner.intern(t2)]) == fuse(
            t1, t2
        )

    @given(normal_types())
    def test_interning_is_identity_and_idempotent(self, t):
        interner, _ = self._memo()
        canonical = interner.intern(t)
        assert canonical == t
        assert interner.intern(canonical) is canonical
        # A structurally equal copy resolves to the same pooled object.
        assert interner.intern(t) is canonical

    @given(normal_types(), normal_types())
    def test_memo_commutes(self, t1, t2):
        interner, memo = self._memo()
        a, b = interner.intern(t1), interner.intern(t2)
        assert memo([a, b]) == memo([b, a])

    @given(normal_types(), normal_types(), normal_types())
    def test_memo_associates(self, t1, t2, t3):
        interner, memo = self._memo()
        a, b, c = (interner.intern(t) for t in (t1, t2, t3))
        assert memo([memo([a, b]), c]) == memo([a, memo([b, c])])
        assert memo([a, b, c]) == memo([memo([a, b]), c])

    @given(normal_types(), normal_types())
    def test_memo_result_is_canonical_and_cached(self, t1, t2):
        interner, memo = self._memo()
        a, b = interner.intern(t1), interner.intern(t2)
        first = memo([a, b])
        assert interner.intern(first) is first
        # Repeating the same pooled operands must hit the cache exactly.
        assert memo([a, b]) is first

    @given(st.lists(json_values(), min_size=1, max_size=8))
    def test_memo_fold_equals_fuse_all(self, values):
        interner, memo = self._memo()
        operands = [interner.intern(infer_type(v)) for v in values]
        schema = EMPTY
        for t in operands:
            schema = memo([schema, t])
        expected = fuse_all([infer_type(v) for v in values])
        assert schema == expected
        assert memo(operands) == expected

    @given(normal_types(), normal_types())
    def test_separate_memos_agree(self, t1, t2):
        """Pooling is per-partition state; results must not depend on it."""
        i1, m1 = self._memo()
        i2, m2 = self._memo()
        assert m1([i1.intern(t1), i1.intern(t2)]) == m2(
            [i2.intern(t1), i2.intern(t2)]
        )


@st.composite
def repeated_types(draw, max_distinct=6):
    """A shuffled list of normal types, each occurring one to three times;
    positional arrays are among them whenever ``normal_types`` draws
    one, and one in three draws adds a positional pair of a drawn type."""
    distinct = draw(st.lists(normal_types(), max_size=max_distinct))
    if distinct and draw(st.integers(0, 2)) == 0:
        distinct.append(ArrayType([distinct[0], distinct[-1]]))
    types = [t for t in distinct for _ in range(draw(st.integers(1, 3)))]
    return draw(st.permutations(types))


class TestNaryFuse:
    """The kernel's n-ary ``Fuse`` over many operands at once.

    One call over a multiset of types must equal the left fold
    ``fuse_all`` and the deduplicated ``fuse_multiset``, whatever the
    order of the operands or how they are split and fused in parts, and
    must come back canonical in the operands' interner.
    """

    @staticmethod
    def _fuser():
        from repro.core.interning import TypeInterner
        from repro.inference.kernel import _Fuse

        interner = TypeInterner()
        return interner, _Fuse(interner, {})

    @given(repeated_types())
    def test_equals_fuse_all_and_fuse_multiset(self, types):
        interner, fuser = self._fuser()
        fused = fuser([interner.intern(t) for t in types])
        assert fused == fuse_all(types) == fuse_multiset(types)

    @given(st.data(), repeated_types())
    def test_order_and_split_are_not_observable(self, data, types):
        interner, fuser = self._fuser()
        operands = [interner.intern(t) for t in types]
        whole = fuser(operands)
        shuffled = data.draw(st.permutations(operands), label="order")
        assert fuser(shuffled) is whole
        cut = data.draw(st.integers(0, len(operands)), label="cut")
        parts = [fuser(operands[:cut]), fuser(operands[cut:])]
        assert fuser(parts) is whole
        # A fresh fuser, so that no memo entry answers for the split.
        interner, fresh = self._fuser()
        parts = [fresh([interner.intern(t) for t in types[:cut]]),
                 fresh([interner.intern(t) for t in types[cut:]])]
        assert fresh(parts) == whole

    @given(repeated_types())
    def test_results_are_canonical(self, types):
        interner, fuser = self._fuser()
        fused = fuser([interner.intern(t) for t in types])
        assert interner.intern(fused) is fused
        for sub in _subtrees(fused):
            assert interner.intern(sub) is sub


def _subtrees(t):
    yield t
    for child in t.children():
        yield from _subtrees(child)


class TestFuseAllProperties:
    @given(json_values(), json_values(), json_values())
    def test_any_order_same_schema(self, a, b, c):
        types = [infer_type(v) for v in (a, b, c)]
        forward = fuse_all(types)
        backward = fuse_all(types[::-1])
        rotated = fuse_all(types[1:] + types[:1])
        assert forward == backward == rotated

    @given(json_values(), json_values())
    def test_schema_admits_every_input(self, a, b):
        schema = fuse_all([infer_type(a), infer_type(b)])
        assert matches(a, schema) and matches(b, schema)
