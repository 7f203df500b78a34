"""The map-phase fast lanes: type JSON text without materialising values.

The strict pipeline runs three pure-Python stages per record — tokenize,
parse into Python objects, then type those objects (Fig. 4) — and the
intermediate value tree exists only to be typed and thrown away.  This
module removes it, in two flavours selected by :func:`resolve_lane`:

* :class:`HookTyper` (lane ``"hooks"``) — a single prebuilt
  :class:`json.JSONDecoder` whose ``object_pairs_hook`` /
  ``parse_int`` / ``parse_float`` / ``parse_constant`` hooks build
  interned type nodes directly while the stdlib scanner does the lexing
  (C-accelerated by ``_json``, which CPython ships; the stdlib's
  pure-Python scanner drives the same hooks where it is missing).
  Numbers are never converted (both hooks return the ``Num`` singleton
  unconditionally), objects never become dicts, and only strings are
  materialised (the scanner decodes them natively).
* :class:`BytesBatchTyper` (lane ``"bytes"``) — the same hooks over
  whole batches of raw lines joined into one document, with a
  duplicate-line type cache (:class:`LineTypeCache`).

Both lanes are *optimistic*: they handle well-formed records at full
speed and bail out on anything else — a syntax error, a non-standard
``NaN``/``Infinity`` constant, a duplicate object key, a ``\\u``
surrogate escape (which the stdlib scanner tolerates unpaired but the
strict grammar rejects).  The bailout
contract is :exc:`FastLaneMiss` (or any
:class:`~repro.jsonio.errors.JsonError`): the caller re-parses the
offending record with the strict :func:`repro.jsonio.parser.loads` lane,
whose rich ``source``/line/column diagnostics and
:class:`~repro.jsonio.errors.DuplicateKeyError` semantics are therefore
byte-identical to a strict-only run.  Malformed records pay a double
parse; well-formed ones never do.

Equivalence is the hard bar: for every input the fast lanes either
produce the *same interned type object* the strict lane's
``infer_type(loads(text))`` would (pointer equality within one
accumulator), or defer to the strict lane entirely.  The differential
fuzz tests check both properties on arbitrary JSON.
"""

from __future__ import annotations

import json
import re

from repro.core.errors import InvalidTypeError
from repro.core.types import BOOL, NULL, NUM, RecordType, STR, Type
from repro.jsonio.keycache import KeyCache

__all__ = [
    "PARSE_LANES",
    "BytesBatchTyper",
    "FastLaneMiss",
    "HookTyper",
    "LineTypeCache",
    "resolve_lane",
]

#: The public values of the ``parse_lane`` knob.  ``auto`` lets the
#: library choose (currently: the hook lane), ``fast`` requests the
#: no-value-tree lane explicitly, ``bytes`` the vectorized bytes-native
#: batch lane, ``strict`` forces the original tokenize -> parse -> type
#: pipeline.
PARSE_LANES = ("auto", "fast", "bytes", "strict")

#: Resolved (internal) lane names; "hooks" may also be passed to
#: :func:`resolve_lane` directly (used by the benchmarks and tests).
RESOLVED_LANES = ("hooks", "bytes", "strict")


class FastLaneMiss(ValueError):
    """A record the fast lane declines to type.

    Raised (or re-raised) by the typers for any input they cannot handle
    at full speed: malformed JSON, duplicate object keys, non-standard
    constants.  The caller must re-parse the record with the strict lane,
    which either produces the value (and the record is typed from it) or
    fails with the exact diagnostic a strict-only run would have raised.

    Subclasses :class:`ValueError` so the stdlib decoder hooks can raise
    it through the C scanner uniformly with ``json.JSONDecodeError``.
    """


def resolve_lane(parse_lane: str) -> str:
    """Map the public ``parse_lane`` knob to a concrete implementation.

    ``strict`` stays strict.  ``fast`` and ``auto`` both resolve to the
    ``"hooks"`` lane — ``auto`` is the pipelines' default and is kept
    distinct from ``fast`` so future heuristics (e.g. preferring strict
    for diagnostics-heavy permissive runs) can change its choice without
    an API break.  The resolved name ``"hooks"`` passes through.

    ``bytes`` resolves to itself: the vectorized bytes-native lane
    (:class:`BytesBatchTyper` fed by the
    :class:`~repro.jsonio.blockscan.SplitBlockScanner`) is opt-in for
    now — it shares the strict-fallback equivalence contract with the
    per-line hook lane but batches records through one decoder call.

    >>> resolve_lane("strict")
    'strict'
    >>> resolve_lane("auto")
    'hooks'
    >>> resolve_lane("bytes")
    'bytes'
    """
    if parse_lane == "strict":
        return "strict"
    if parse_lane in ("auto", "fast"):
        return "hooks"
    if parse_lane in ("bytes", "hooks"):
        return parse_lane
    raise ValueError(
        f"unknown parse_lane {parse_lane!r}; expected one of "
        f"{PARSE_LANES} (or a resolved lane in {RESOLVED_LANES})"
    )


# ---------------------------------------------------------------------------
# Lane "hooks": drive the stdlib C scanner, build types in the hooks


def _number_hook(_literal: str) -> Type:
    """Both number hooks: classify without converting the literal."""
    return NUM


def _constant_hook(literal: str) -> Type:
    """Reject the stdlib's non-standard NaN/Infinity leniency.

    The strict grammar (RFC 8259) has no such constants; bailing out here
    hands the record to the strict lane, which raises the same
    ``invalid literal`` diagnostic it always has.
    """
    raise FastLaneMiss(f"non-standard JSON constant {literal!r}")


#: A ``\u`` escape naming a code point in U+D800-U+DFFF (the second hex
#: digit of every surrogate is D and the third is 8-F).  The stdlib C
#: scanner decodes these permissively — a lone ``\ud800`` passes through
#: as an unpaired surrogate — while the strict tokenizer pairs them per
#: RFC 8259 section 7 and rejects lone ones, so any record containing
#: such an escape must take the strict lane to keep acceptance,
#: diagnostics and quarantine byte-identical.  Deliberately conservative:
#: a validly *paired* escape (``\\ud83d\\ude00``) also misses, and the
#: strict re-parse then accepts it with the identical type — only the
#: rare escape-bearing record pays, and the check stays one C-speed scan
#: of the raw text.  (An escaped backslash like ``\\ud800`` false-matches
#: too; same harmless deferral.)  Raw unescaped surrogate *characters*
#: need no handling: both lanes pass them through unchanged.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class HookTyper:
    """C-accelerated typed parsing via stdlib ``json`` decoder hooks.

    One :class:`json.JSONDecoder` is built per typer (``json.loads`` with
    keyword hooks constructs a fresh decoder *per call* — a hidden cost
    this class avoids) and reused for every record of the partition.

    What flows out of the scanner is a hybrid: numbers are already the
    ``Num`` singleton (the parse hooks never build ``int``/``float``),
    objects are already interned ``RecordType`` nodes, while strings,
    booleans, ``null`` and arrays arrive as native Python values and are
    classified by :meth:`_type_of`.  Duplicate object keys surface as
    :class:`~repro.core.errors.InvalidTypeError` from ``RecordType``'s own
    well-formedness check and become a :class:`FastLaneMiss`; the strict
    re-parse then reports the exact offending position.  Records carrying
    ``\\u`` surrogate escapes are deferred wholesale before decoding (see
    ``_SURROGATE_ESCAPE``): the C scanner tolerates lone surrogates the
    strict grammar rejects, so strict must arbitrate those.
    """

    __slots__ = ("_field", "_record", "_array", "_decode", "_key")

    def __init__(self, acc, key_cache: KeyCache | None = None) -> None:
        self._field = acc.interner.field
        self._record = acc.record_type
        self._array = acc.array_type
        # Bounded key dedup: repeated field names share one string without
        # sys.intern's process-global, immortal pinning.  Per-typer (i.e.
        # per-partition) by default; a warm worker passes its own cache so
        # the sharing survives across that worker's partitions.
        self._key = (key_cache or KeyCache()).share
        self._decode = json.JSONDecoder(
            object_pairs_hook=self._record_hook,
            parse_float=_number_hook,
            parse_int=_number_hook,
            parse_constant=_constant_hook,
        ).decode

    def type_document(self, text: str) -> Type:
        """The interned type of ``text``; raises :class:`FastLaneMiss`."""
        if "\\u" in text and _SURROGATE_ESCAPE.search(text) is not None:
            # The C scanner would accept lone surrogate escapes the
            # strict grammar rejects; defer before decoding so the
            # strict lane is the arbiter of acceptance.
            raise FastLaneMiss("surrogate \\u escape; deferring to strict")
        try:
            value = self._decode(text)
        except (ValueError, InvalidTypeError) as exc:
            # json.JSONDecodeError, our own hooks' FastLaneMiss, and the
            # duplicate-key InvalidTypeError all funnel into one miss.
            raise FastLaneMiss(str(exc)) from exc
        return self._type_of(value)

    def _record_hook(self, pairs: list[tuple[str, object]]) -> Type:
        field = self._field
        type_of = self._type_of
        share_key = self._key
        return self._record(
            tuple(field(share_key(k), type_of(v)) for k, v in pairs)
        )

    def _type_of(self, value: object) -> Type:
        """Classify one scanner output (native value or ready-made type)."""
        cls = value.__class__
        if cls is str:
            return STR
        if cls is list:
            return self._array(tuple(map(self._type_of, value)))
        if cls is bool:
            return BOOL
        if value is None:
            return NULL
        return value  # already a Type from a nested hook


# ---------------------------------------------------------------------------
# Lane "bytes": batched zero-decode typing with a duplicate-line type cache

#: Default entry bound of :class:`LineTypeCache`.
DEFAULT_LINE_CACHE_ENTRIES = 1 << 20

#: Default byte bound of :class:`LineTypeCache` (sum of cached key sizes).
DEFAULT_LINE_CACHE_BYTES = 64 << 20


class LineTypeCache:
    """Bounded raw-line -> interned-type dedup cache.

    Feeds the bytes lane's short-circuit: a line whose exact raw bytes
    were typed before maps straight to its canonical type — no decode, no
    parse.  Soundness is by construction: keys are the *unmodified* line
    slices, entries are inserted only after a successful fast-path parse,
    and the cache lives next to exactly one interner (a
    :class:`~repro.inference.kernel.WarmState`'s, or a per-task
    accumulator's), so a cached type is always canonical where it is
    reused.  Warm-state residency is what makes it generation-tagged:
    driver-side invalidation rebuilds the warm state, cache included.

    Bounded on both entry count and summed key bytes with the same
    clear-on-full policy as :class:`~repro.jsonio.keycache.KeyCache`: hot
    lines re-enter on their next occurrence, memory stays bounded, and a
    missed reuse only costs a re-parse, never a wrong result.
    """

    __slots__ = ("data", "_cap_entries", "_cap_bytes", "_size_bytes")

    def __init__(
        self,
        cap_entries: int = DEFAULT_LINE_CACHE_ENTRIES,
        cap_bytes: int = DEFAULT_LINE_CACHE_BYTES,
    ) -> None:
        if cap_entries < 1 or cap_bytes < 1:
            raise ValueError("cache bounds must be positive")
        #: The probe table.  Exposed raw: the hot loop probes
        #: ``data.get(line)`` directly (a readonly ``memoryview`` hashes
        #: and compares equal to its ``bytes`` copy, so mmap slices probe
        #: without copying).
        self.data: dict = {}
        self._cap_entries = cap_entries
        self._cap_bytes = cap_bytes
        self._size_bytes = 0

    def insert(self, line, t: Type) -> None:
        """Cache ``line`` (bytes or str) -> ``t``, evicting when full."""
        if (len(self.data) >= self._cap_entries
                or self._size_bytes >= self._cap_bytes):
            self.data.clear()
            self._size_bytes = 0
        self.data[line] = t
        self._size_bytes += len(line)

    def __len__(self) -> int:
        return len(self.data)


class BytesBatchTyper:
    """Vectorized bytes-native typing: one C-scanner pass per line batch.

    The per-line hook lane still pays one Python ``loads`` round trip per
    record.  This lane amortises it: a batch of raw line slices is joined
    with commas into one ``[...]`` document and decoded through a single
    prebuilt :class:`json.JSONDecoder` call, so scanner setup, hook
    dispatch machinery and key memoization are shared across thousands of
    records.  Numbers are left to the C scanner entirely (native
    ``int``/``float`` construction beats a Python ``parse_int`` hook at
    batch sizes) and classified to ``Num`` in :meth:`_type_of`.

    Equivalence with the strict lane rests on three guards:

    * the joined document is decoded from an **explicit** UTF-8 ``str``
      (``json.loads(bytes)`` would BOM-sniff via ``detect_encoding``,
      silently accepting BOM'd records the strict lane rejects);
    * a surrogate ``\\u`` escape anywhere in the batch defers the whole
      batch (same conservative check as :class:`HookTyper`);
    * the decoded element count must equal the joined line count.  Every
      non-empty line contributes at least one element or fails the parse,
      so equality proves each line contributed *exactly* one — a line
      like ``1,2`` (which strict rejects as trailing data) can never
      smuggle extra records through the join.

    Any violation — or any decode error at all — raises
    :class:`FastLaneMiss`, and the caller re-runs that batch line by line
    through the ordinary per-line arbitration (fast parse, strict
    re-parse on miss), keeping errors and quarantine byte-identical.

    ``hits`` / ``misses`` / ``bytes_avoided`` count dedup-cache outcomes
    for completed fast-path batches (a batch that falls back contributes
    nothing: its records were re-parsed, so no decode was avoided).
    """

    __slots__ = ("_field", "_record", "_array", "_decode", "_key",
                 "_cache", "hits", "misses", "bytes_avoided")

    def __init__(self, acc, key_cache: KeyCache | None = None,
                 line_cache: "LineTypeCache | None" = None) -> None:
        self._field = acc.interner.field
        self._record = acc.record_type
        self._array = acc.array_type
        self._key = (key_cache or KeyCache()).share
        self._cache = line_cache
        self.hits = 0
        self.misses = 0
        self.bytes_avoided = 0
        self._decode = json.JSONDecoder(
            object_pairs_hook=self._record_hook,
            parse_constant=_constant_hook,
        ).decode

    def type_lines(self, lines) -> list:
        """Type one batch of raw byte lines (memoryview/bytes slices).

        Returns a list aligned with ``lines``: the interned type per
        record, ``None`` for empty lines.  Raises :class:`FastLaneMiss`
        when the batch needs per-line arbitration — nothing has been
        observed or cached at that point, so the caller can simply rerun
        the same ``lines`` through the per-line path.
        """
        cache = self._cache
        probe = cache.data.get if cache is not None else None
        out: list = []
        append = out.append
        miss_index: list[int] = []
        batch_hits = batch_hit_bytes = 0
        for line in lines:
            if not line:
                append(None)  # blank line: counted, never typed
                continue
            if probe is not None:
                t = probe(line)
                if t is not None:
                    append(t)
                    batch_hits += 1
                    batch_hit_bytes += len(line)
                    continue
            miss_index.append(len(out))
            append(None)
        if miss_index:
            doc = b"[" + b",".join([lines[i] for i in miss_index]) + b"]"
            try:
                text = doc.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FastLaneMiss(str(exc)) from exc
            if "\\u" in text and _SURROGATE_ESCAPE.search(text) is not None:
                raise FastLaneMiss(
                    "surrogate \\u escape; deferring to strict"
                )
            try:
                values = self._decode(text)
            except (ValueError, InvalidTypeError, RecursionError) as exc:
                raise FastLaneMiss(str(exc)) from exc
            if len(values) != len(miss_index):
                raise FastLaneMiss(
                    "joined batch decoded to a different record count; "
                    "a line is not a single JSON document"
                )
            type_of = self._type_of
            record_cls = RecordType
            for i, v in zip(miss_index, values):
                out[i] = v if v.__class__ is record_cls else type_of(v)
            if cache is not None:
                insert = cache.insert
                for i in miss_index:
                    insert(bytes(lines[i]), out[i])
        self.hits += batch_hits
        self.misses += len(miss_index)
        self.bytes_avoided += batch_hit_bytes
        return out

    def type_text_lines(self, lines: list) -> list:
        """Line-mode twin of :meth:`type_lines` over ``str`` lines.

        The driver's line mode ships already-decoded, already-stripped
        text, so the join is textual and cache keys are the ``str`` lines
        themselves (``str`` and ``bytes`` keys never collide in one
        table).  Blank lines cannot occur (the line reader drops them).
        """
        cache = self._cache
        probe = cache.data.get if cache is not None else None
        out: list = []
        append = out.append
        miss_index: list[int] = []
        batch_hits = batch_hit_bytes = 0
        for line in lines:
            if probe is not None:
                t = probe(line)
                if t is not None:
                    append(t)
                    batch_hits += 1
                    batch_hit_bytes += len(line)
                    continue
            miss_index.append(len(out))
            append(None)
        if miss_index:
            text = "[" + ",".join([lines[i] for i in miss_index]) + "]"
            if "\\u" in text and _SURROGATE_ESCAPE.search(text) is not None:
                raise FastLaneMiss(
                    "surrogate \\u escape; deferring to strict"
                )
            try:
                values = self._decode(text)
            except (ValueError, InvalidTypeError, RecursionError) as exc:
                raise FastLaneMiss(str(exc)) from exc
            if len(values) != len(miss_index):
                raise FastLaneMiss(
                    "joined batch decoded to a different record count; "
                    "a line is not a single JSON document"
                )
            type_of = self._type_of
            record_cls = RecordType
            for i, v in zip(miss_index, values):
                out[i] = v if v.__class__ is record_cls else type_of(v)
            if cache is not None:
                insert = cache.insert
                for i in miss_index:
                    insert(lines[i], out[i])
        self.hits += batch_hits
        self.misses += len(miss_index)
        self.bytes_avoided += batch_hit_bytes
        return out

    def _record_hook(self, pairs: list) -> Type:
        field = self._field
        type_of = self._type_of
        share_key = self._key
        return self._record(
            tuple([field(share_key(k), type_of(v)) for k, v in pairs])
        )

    def _type_of(self, value: object) -> Type:
        """Classify one scanner output (native value or ready-made type)."""
        cls = value.__class__
        if cls is str:
            return STR
        if cls is int or cls is float:
            return NUM
        if cls is list:
            return self._array(tuple([self._type_of(e) for e in value]))
        if cls is bool:
            return BOOL
        if value is None:
            return NULL
        return value  # already a Type from a nested hook
