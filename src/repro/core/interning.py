"""Hash-consing for types: share structurally equal subtrees.

Typing a million homogeneous records produces a million structurally equal
type trees.  Equality and hashing are already O(1)-amortised (hashes are
cached), but memory is not: each tree is a separate object graph.  A
:class:`TypeInterner` rebuilds types bottom-up through a pool so that equal
subtrees become the *same* object — after interning, a dataset's types form
a DAG whose size is the number of distinct subtrees.

This is the "type interning on/off" ablation of DESIGN.md: interning costs
one pool lookup per node at creation and repays it with near-deduplicated
memory and pointer-equality fast paths downstream.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.types import (
    ArrayType,
    EmptyType,
    Field,
    RecordType,
    StarArrayType,
    Type,
    UnionType,
)

__all__ = ["TypeInterner"]


class TypeInterner:
    """A pool mapping each distinct type to one canonical instance.

    >>> from repro.inference import infer_type
    >>> interner = TypeInterner()
    >>> a = interner.intern(infer_type({"x": 1}))
    >>> b = interner.intern(infer_type({"x": 2}))
    >>> a is b
    True
    """

    def __init__(self) -> None:
        self._pool: dict[Type, Type] = {}
        self._field_pool: dict[Field, Field] = {}
        # (name, id(canonical type), optional) -> canonical Field; lets
        # :meth:`field` skip Field construction and structural hashing on
        # repeats.  Sound because the pool keeps canonical types alive, so
        # the id cannot be recycled.
        self._field_cache: dict[tuple[str, int, bool], Field] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Number of distinct type nodes in the pool."""
        return len(self._pool)

    def _canon(self, t: Type) -> Type:
        found = self._pool.get(t)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        self._pool[t] = t
        return t

    def _intern_field(self, field: Field, field_type: Type) -> Field:
        if field_type is not field.type:
            field = Field(field.name, field_type, field.optional)
        found = self._field_pool.get(field)
        if found is not None:
            return found
        self._field_pool[field] = field
        return field

    def field(self, name: str, type: Type, optional: bool = False) -> Field:
        """Canonical :class:`Field` for ``(name, type, optional)``.

        ``type`` must already be canonical (interned); callers building
        types bottom-up — like the streaming kernel — use this so that
        record types are constructed from pooled fields and the record
        pool lookup compares field tuples by pointer equality.
        """
        key = (name, id(type), optional)
        found = self._field_cache.get(key)
        if found is not None:
            return found
        field = Field(name, type, optional)
        canonical = self._field_pool.get(field)
        if canonical is None:
            self._field_pool[field] = canonical = field
        self._field_cache[key] = canonical
        return canonical

    def intern_node(self, t: Type) -> Type:
        """Canonicalize one node whose children are *already* canonical.

        The streaming kernel and its n-ary fuser build types bottom-up
        from pooled children, so the recursive rebuild of :meth:`intern`
        is pure overhead for them: one pool lookup decides canonicity of
        the whole node.  Callers must guarantee every child (field types,
        array elements, union members, star bodies) came out of this
        interner — handing over a node with foreign children would pool a
        type whose subtrees are not shared.
        """
        found = self._pool.get(t)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        self._pool[t] = t
        return t

    def intern(self, t: Type) -> Type:
        """Return the canonical instance of ``t``, pooling every subtree."""
        # Fast path: the exact node is already canonical.
        found = self._pool.get(t)
        if found is not None:
            self.hits += 1
            return found

        if isinstance(t, RecordType):
            fields = tuple(
                self._intern_field(f, self.intern(f.type)) for f in t.fields
            )
            rebuilt = t if all(a is b for a, b in zip(fields, t.fields)) \
                else RecordType(fields)
            return self._canon(rebuilt)
        if isinstance(t, ArrayType):
            elements = tuple(self.intern(e) for e in t.elements)
            rebuilt = t if all(a is b for a, b in zip(elements, t.elements)) \
                else ArrayType(elements)
            return self._canon(rebuilt)
        if isinstance(t, StarArrayType):
            body = self.intern(t.body)
            rebuilt = t if body is t.body else StarArrayType(body)
            return self._canon(rebuilt)
        if isinstance(t, UnionType):
            members = tuple(self.intern(m) for m in t.members)
            rebuilt = t if all(a is b for a, b in zip(members, t.members)) \
                else UnionType(members)
            return self._canon(rebuilt)
        # Basic and empty types.
        return self._canon(t)

    def intern_all(self, types: Iterable[Type]) -> list[Type]:
        """Intern a whole collection, preserving order."""
        return [self.intern(t) for t in types]

    @property
    def hit_rate(self) -> float:
        """Fraction of intern lookups served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
