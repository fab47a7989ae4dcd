"""Tests for the case-insensitive header multimap."""

from hypothesis import given
from hypothesis import strategies as st

from repro.http import Headers


def test_add_and_case_insensitive_get():
    headers = Headers()
    headers.add("Content-Type", "text/plain")
    assert headers.get("content-type") == "text/plain"
    assert headers.get("CONTENT-TYPE") == "text/plain"
    assert "content-TYPE" in headers


def test_get_default():
    assert Headers().get("X-Missing", "fallback") == "fallback"
    assert Headers().get("X-Missing") is None


def test_duplicates_preserved_in_order():
    headers = Headers()
    headers.add("Via", "a")
    headers.add("via", "b")
    assert headers.get("Via") == "a"
    assert headers.get_all("VIA") == ["a", "b"]
    assert len(headers) == 2


def test_set_replaces_all_values():
    headers = Headers([("X", "1"), ("x", "2")])
    headers.set("X", "3")
    assert headers.get_all("x") == ["3"]


def test_setdefault_only_when_absent():
    headers = Headers()
    headers.setdefault("Host", "a")
    headers.setdefault("host", "b")
    assert headers.get("Host") == "a"


def test_remove_is_silent_when_absent():
    headers = Headers([("A", "1")])
    headers.remove("nothing")
    headers.remove("a")
    assert len(headers) == 0


def test_init_from_dict_and_pairs_and_headers():
    from_dict = Headers({"A": "1"})
    from_pairs = Headers([("A", "1")])
    from_headers = Headers(from_dict)
    assert from_dict == from_pairs == from_headers


def test_values_coerced_to_str():
    headers = Headers()
    headers.add("Content-Length", 42)
    assert headers.get("content-length") == "42"
    assert headers.get_int("Content-Length") == 42


def test_get_int_invalid_returns_none():
    headers = Headers([("Content-Length", "abc")])
    assert headers.get_int("Content-Length") is None


def test_contains_token_splits_comma_lists():
    headers = Headers([("Connection", "keep-alive, Upgrade")])
    assert headers.contains_token("connection", "KEEP-ALIVE")
    assert headers.contains_token("connection", "upgrade")
    assert not headers.contains_token("connection", "close")


def test_copy_is_independent():
    original = Headers([("A", "1")])
    clone = original.copy()
    clone.add("B", "2")
    assert "B" not in original


def test_equality_ignores_name_case_not_order():
    assert Headers([("a", "1"), ("b", "2")]) == Headers(
        [("A", "1"), ("B", "2")]
    )
    assert Headers([("a", "1"), ("b", "2")]) != Headers(
        [("b", "2"), ("a", "1")]
    )


# -- equivalence with a naive multimap ---------------------------------------


class _NaiveHeaders:
    """The reference: a list of pairs, every lookup lowering each name."""

    def __init__(self, pairs=()):
        self.pairs = [(str(k), str(v)) for k, v in pairs]

    def add(self, name, value):
        self.pairs.append((name, value))

    def remove(self, name):
        self.pairs = [p for p in self.pairs if p[0].lower() != name.lower()]

    def set(self, name, value):
        self.remove(name)
        self.add(name, value)

    def setdefault(self, name, value):
        if not self.get_all(name):
            self.add(name, value)

    def extend(self, pairs):
        self.pairs.extend(pairs)

    def get_all(self, name):
        return [v for k, v in self.pairs if k.lower() == name.lower()]

    def key(self):
        return [(k.lower(), v) for k, v in self.pairs]


_names = st.sampled_from(["Host", "Connection", "X-A", "ETag", "Ä-B"])
_names = _names.flatmap(
    lambda name: st.sampled_from(
        [name, name.lower(), name.upper(), name.swapcase()]
    )
)
_values = st.sampled_from(["1", "keep-alive", "Close, keep-alive", " a,b", ""])
_edits = st.sampled_from(["add", "set", "setdefault"])
_ops = st.lists(
    st.one_of(
        st.tuples(_edits, _names, _values),
        st.tuples(st.just("remove"), _names),
        st.tuples(st.just("extend"), st.lists(st.tuples(_names, _values))),
        st.tuples(st.just("copy")),
    ),
    max_size=25,
)


@given(ops=_ops, probes=st.lists(_names, min_size=1, max_size=5))
def test_headers_agree_with_a_naive_multimap(ops, probes):
    """Random mixed-case edits leave ``get``, ``get_all``,
    ``contains_token``, ``items`` and ``==`` where a multimap that
    lowers every name on every lookup leaves them."""
    headers, naive = Headers(), _NaiveHeaders()
    for op, *args in ops:
        if op == "copy":
            headers = headers.copy()
        elif op == "extend":
            headers.extend(args[0])
            naive.extend(args[0])
        else:
            getattr(headers, op)(*args)
            getattr(naive, op)(*args)
        assert list(headers.items()) == naive.pairs
        assert len(headers) == len(naive.pairs)
    for name in probes:
        values = naive.get_all(name)
        assert headers.get_all(name) == values
        assert headers.get(name, "-") == (values[0] if values else "-")
        assert (name in headers) == bool(values)
        for token in ("keep-alive", "close", "b"):
            assert headers.contains_token(name, token) == any(
                part.strip().lower() == token
                for value in values
                for part in value.split(",")
            )
    twin = Headers(naive.pairs)
    assert twin == headers and headers == twin
    shuffled = Headers([(k.swapcase(), v) for k, v in naive.pairs])
    assert shuffled == headers
    if naive.pairs:
        other = Headers(naive.pairs[:-1])
        assert (other == headers) == (naive.key()[:-1] == naive.key())
