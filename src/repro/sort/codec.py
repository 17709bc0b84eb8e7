"""Order-preserving fixed-width compressed key codec.

Index entries ``(col0, col1, ..., rid)`` are packed column-wise into a single
Python machine integer so that ``encode(a) < encode(b)  <=>  a < b``.
Run formation and ``RestartableMerger`` then compare one int instead of a
composite tuple; decoding is deferred until the bulk load.

Layout (big-endian, most significant column first):

* int column   -- ``INT_BITS`` bits holding ``value + INT_OFFSET``.  Values
  outside the representable window spill: field becomes the underflow (0) or
  overflow (all-ones) sentinel and the key is carried raw.
* str column   -- ``STR_PREFIX`` prefix bytes, each stored as ``byte + 1``
  (0 reserved for padding, so the empty string sorts below ``"\\x00"``),
  followed by one continuation bit.  Strings longer than the prefix keep the
  exact prefix, set the continuation bit, and spill so ties are broken on the
  raw tuple.  UTF-8 byte order equals code-point order, so prefix order is
  string order.
* rid          -- ``RID_BITS`` low bits holding the int RID (page number
  above ``SLOT_BITS`` slot bits) as ``rid + 1``, with 0/all-ones
  underflow/overflow sentinels.  Out-of-range rids spill (an IOT's large
  primary keys; never a heap page at the scales this repo simulates).

Spilled keys are wrapped in :class:`SpilledKey`: every field *after* the
spilling column is zeroed in the code, so two codes are equal only when the
encoded prefix is identical, and the wrapper breaks the tie on the raw key.
Sentinel field values are disjoint from every exact encoding, so a spilled
code never collides with an exact code for a different key -- comparing the
bare ints is always decisive across the exact/spilled boundary.
"""

from __future__ import annotations

from repro.btree.node import entry_key, entry_rid, make_entry
from repro.storage.rid import SLOT_BITS

INT_BITS = 40
INT_OFFSET = 1 << (INT_BITS - 1)
_INT_MAX_FIELD = (1 << INT_BITS) - 1  # overflow sentinel; 0 is underflow

STR_PREFIX = 4
STR_BITS = STR_PREFIX * 8 + 1  # prefix bytes + continuation bit
_STR_SPILL_FIELD = (1 << STR_BITS) - 1  # non-encodable value sentinel

RID_PAGE_BITS = 24
RID_BITS = RID_PAGE_BITS + SLOT_BITS
_RID_FIELD_MAX = (1 << RID_BITS) - 1  # overflow sentinel; 0 underflow
_RID_EXACT_MAX = _RID_FIELD_MAX - 2  # field stores rid + 1

_KIND_BITS = {"i": INT_BITS, "s": STR_BITS}


class SpilledKey:
    """A key whose fixed-width encoding was lossy.

    ``code`` orders it against every other key (exact or spilled) up to the
    encoded prefix; ``raw`` is the entry itself, used to break exact
    prefix ties and returned as is on decode.
    """

    __slots__ = ("code", "raw")

    def __init__(self, code, raw):
        self.code = code
        self.raw = raw

    def __repr__(self):  # pragma: no cover - debug aid
        return f"SpilledKey({self.code!r}, {self.raw!r})"

    def __lt__(self, other):
        if type(other) is SpilledKey:
            if self.code != other.code:
                return self.code < other.code
            return self.raw < other.raw
        if isinstance(other, int):
            # Sentinel fields are disjoint from exact encodings, so the codes
            # can never be equal: the int comparison is decisive.
            return self.code < other
        return NotImplemented

    def __le__(self, other):
        if type(other) is SpilledKey:
            if self.code != other.code:
                return self.code < other.code
            return self.raw <= other.raw
        if isinstance(other, int):
            return self.code < other
        return NotImplemented

    def __gt__(self, other):
        if type(other) is SpilledKey:
            if self.code != other.code:
                return self.code > other.code
            return self.raw > other.raw
        if isinstance(other, int):
            return self.code > other
        return NotImplemented

    def __ge__(self, other):
        if type(other) is SpilledKey:
            if self.code != other.code:
                return self.code > other.code
            return self.raw >= other.raw
        if isinstance(other, int):
            return self.code > other
        return NotImplemented

    def __eq__(self, other):
        if type(other) is SpilledKey:
            return self.code == other.code and self.raw == other.raw
        return NotImplemented

    def __ne__(self, other):
        if type(other) is SpilledKey:
            return self.code != other.code or self.raw != other.raw
        return NotImplemented

    def __hash__(self):
        return hash((self.code, self.raw))


class KeyCodec:
    """Column-wise fixed-width codec for one index's composite keys.

    The column layout binds lazily from the first key seen (or from a
    persisted manifest on crash/resume).  A column of any type other than
    int/str disables the codec: ``encode`` must not be called once
    ``disabled`` is true -- callers fall back to raw tuples.
    """

    __slots__ = ("kinds", "_shifts", "total_bits", "spills", "disabled",
                 "_encode_cache", "_decode_cache")

    def __init__(self, kinds=None):
        self.kinds = None
        self._shifts = None
        self.total_bits = 0
        self.spills = 0
        self.disabled = False
        #: dictionary-encoding memos: secondary-index key values repeat
        #: across records (every record in a region/category shares
        #: them), so the column encoding is computed once per distinct
        #: key value and the decode once per distinct column code.  Pure
        #: memos of deterministic functions -- volatile, never persisted,
        #: bounded so adversarial key streams cannot grow them unboundedly.
        self._encode_cache = {}
        self._decode_cache = {}
        if kinds is not None:
            self._bind_kinds(kinds)

    # -- layout binding ----------------------------------------------------

    @property
    def bound(self):
        return self.kinds is not None

    @property
    def active(self):
        return self.kinds is not None and not self.disabled

    def _bind_kinds(self, kinds):
        for kind in kinds:
            if kind not in _KIND_BITS:
                raise ValueError(f"unsupported codec kind {kind!r}")
        self.kinds = kinds
        shifts = []
        position = RID_BITS
        for kind in reversed(kinds):
            shifts.append(position)
            position += _KIND_BITS[kind]
        shifts.reverse()
        self._shifts = shifts
        self.total_bits = position
        self._encode_cache.clear()
        self._decode_cache.clear()

    def bind(self, key_value):
        """Bind the layout from the first key's column types."""
        kinds = []
        for value in key_value:
            if type(value) is int:
                kinds.append("i")
            elif type(value) is str:
                kinds.append("s")
            else:
                self.disabled = True
                return False
        self._bind_kinds("".join(kinds))
        return True

    # -- persistence -------------------------------------------------------

    def to_manifest(self):
        return {"kinds": self.kinds, "disabled": self.disabled}

    @classmethod
    def from_manifest(cls, manifest):
        codec = cls()
        if manifest.get("disabled"):
            codec.disabled = True
            return codec
        kinds = manifest.get("kinds")
        if kinds is not None:
            codec._bind_kinds(kinds)
        return codec

    def adopt(self, manifest):
        """Rebind from a persisted manifest, validating any existing binding."""
        restored = KeyCodec.from_manifest(manifest)
        if self.bound and restored.bound and self.kinds != restored.kinds:
            from repro.errors import SortRestartError

            raise SortRestartError(
                f"codec layout mismatch: bound {self.kinds!r}, "
                f"manifest {restored.kinds!r}"
            )
        if restored.disabled:
            self.disabled = True
        elif restored.bound and not self.bound:
            self._bind_kinds(restored.kinds)

    # -- encode / decode ---------------------------------------------------

    def encode(self, entry):
        """Encode an entry into an int or a SpilledKey (the uncompressed
        path pushes the same entries).

        The column encoding is memoized per distinct key value (the rid
        fields are folded in fresh for every record): repeated key values
        -- the normal case for a secondary index -- pay one dict hit
        instead of the column loop.
        """
        key_value, rid = entry_key(entry), entry_rid(entry)
        try:
            cached = self._encode_cache.get(key_value)
        except TypeError:  # unhashable column value: encode directly
            cached = self._encode_columns(key_value)
        else:
            if cached is None:
                cached = self._encode_columns(key_value)
                if len(self._encode_cache) < _CACHE_LIMIT:
                    self._encode_cache[key_value] = cached
        code, spilled = cached
        if not spilled:
            if 0 <= rid <= _RID_EXACT_MAX:
                return code | (rid + 1)
            if rid > 0:
                code |= _RID_FIELD_MAX
            # rid < 0 leaves the field at the 0 underflow sentinel
        self.spills += 1
        return SpilledKey(code, entry)

    def _encode_columns(self, key_value):
        """``(code, spilled)`` for the column fields alone (rid bits 0)."""
        kinds = self.kinds
        shifts = self._shifts
        code = 0
        spilled = False
        for index, kind in enumerate(kinds):
            value = key_value[index]
            if kind == "i":
                if type(value) is int:
                    field = value + INT_OFFSET
                    if field < 1:
                        field = 0
                        spilled = True
                    elif field > _INT_MAX_FIELD - 1:
                        field = _INT_MAX_FIELD
                        spilled = True
                else:
                    field = _INT_MAX_FIELD
                    spilled = True
            else:
                if type(value) is str:
                    try:
                        encoded = value.encode("utf-8")
                    except UnicodeEncodeError:
                        field = _STR_SPILL_FIELD
                        spilled = True
                    else:
                        prefix = encoded[:STR_PREFIX]
                        field = 0
                        for byte in prefix:
                            field = (field << 8) | (byte + 1)
                        field <<= 8 * (STR_PREFIX - len(prefix)) + 1
                        if len(encoded) > STR_PREFIX:
                            field |= 1
                            spilled = True
                else:
                    field = _STR_SPILL_FIELD
                    spilled = True
            code |= field << shifts[index]
            if spilled:
                # Zero every lower-significance field so equal codes imply an
                # identical encoded prefix; the raw tuple breaks the tie.
                break
        return code, spilled

    def decode(self, encoded):
        """Recover the entry an encoded key came from.

        The column tuple is memoized per distinct column code (the
        mirror of the encode memo): the final merger emits duplicates
        adjacently, so a loaded run of one key value decodes its columns
        exactly once.
        """
        if type(encoded) is not int:
            return encoded.raw
        rid = (encoded & _RID_FIELD_MAX) - 1
        column_code = encoded >> RID_BITS
        cached = self._decode_cache.get(column_code)
        if cached is not None:
            return make_entry(cached, rid)
        values = []
        for index, kind in enumerate(self.kinds):
            field = encoded >> self._shifts[index]
            if kind == "i":
                field &= _INT_MAX_FIELD
                values.append(field - INT_OFFSET)
            else:
                field &= _STR_SPILL_FIELD
                field >>= 1  # continuation bit is 0 for exact encodings
                raw = field.to_bytes(STR_PREFIX, "big")
                values.append(raw.rstrip(b"\x00").translate(_STR_DECODE).decode("utf-8"))
        values = tuple(values)
        if len(self._decode_cache) < _CACHE_LIMIT:
            self._decode_cache[column_code] = values
        return make_entry(values, rid)


_STR_DECODE = b"\x00" + bytes(range(255))  # byte -> byte - 1 (index 0 unused)

#: memo bound: adversarial all-distinct key streams stop inserting here
_CACHE_LIMIT = 1 << 16
