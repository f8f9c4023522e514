"""Fuzzing of the two text parsers, for partitions and objects.  Arc
diagrams are printed but never parsed, so they have no parser here.

Text is drawn from each parser's alphabet, either as a soup of
characters and keywords or from the parser's grammar with numbers out of
range, so that both malformed and well-formed input are common.  A
parser either rejects the text with ``ValueError`` or ``ArcDegError``,
or returns a value that reads back unchanged from its own text form.
The object parser is also checked on every object up to weight 8, on
spaced text, and on bad tokens, whose message must not change when the
same token comes again.
"""

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from arcdeg.errors import ArcDegError
from arcdeg.objects import B2, P1, S2Object, _parse_summand, enumerate_objects, object_type
from arcdeg.partitions import Partition
from arcdeg.verify import all_partitions

DIGITS = list("0123456789")


NUMBERS = st.integers(0, 9).map(str) | st.sampled_from(["-1", "007", "12"])
SPACES = st.sampled_from(["", " "])


def texts(tokens, grammar):
    soup = st.lists(st.sampled_from(tokens), max_size=24).map("".join)
    return st.one_of(soup, grammar)


def joined(separator, items):
    return st.lists(st.tuples(SPACES, items), max_size=4).map(lambda xs: separator.join(a + b for a, b in xs))


SUMMAND = st.builds(
    lambda kind, m, r: f"{kind}({m})" if r is None else f"{kind}({m},{r})",
    st.sampled_from(["B", "B2", "P0", "P1", "P2", "Q"]),
    NUMBERS,
    st.none() | st.none() | NUMBERS,
)

PARTITION_TEXT = texts(DIGITS + [",", " ", "-", "+", "\t"], joined(",", NUMBERS))
OBJECT_TEXT = texts(DIGITS + ["B", "B2", "P0", "P1", "P2", "P", "Q", "(", ")", ",", "+", " ", "-"], joined("+", SUMMAND))


def parse(cls, text):
    """The parsed value, or None when the text is rejected as it should be."""
    try:
        return cls.from_text(text)
    except (ValueError, ArcDegError):
        return None


def parses_or_rejects(cls, text):
    value = parse(cls, text)
    if value is not None:
        assert cls.from_text(value.to_text()) == value


@settings(max_examples=300)
@given(PARTITION_TEXT)
def test_partition_text_fuzz(text):
    parses_or_rejects(Partition, text)


@settings(max_examples=300)
@given(OBJECT_TEXT)
def test_object_text_fuzz(text):
    parses_or_rejects(S2Object, text)


def test_fuzz_alphabets_reach_well_formed_text():
    # the fuzzers above also draw text that parses to values with parts
    find(PARTITION_TEXT, lambda t: len(parse(Partition, t) or ()) >= 2)
    find(OBJECT_TEXT, lambda t: len(parse(S2Object, t) or ()) >= 2)


def test_object_text_round_trips_on_every_object_up_to_weight_8():
    count = 0
    for beta in all_partitions(8):
        for obj in enumerate_objects(beta):
            back = S2Object.from_text(obj.to_text())
            assert back == obj and object_type(back) == object_type(obj), obj.to_text()
            count += 1
    assert count > 900


@pytest.mark.parametrize(
    "text", ["B(7, 3) + P1(1)", " B2( 7 ,3 )+ P1 (1) ", "P1(1)+B(7,3)", "B(7,3)+P1(1)", "B2(7,3) +P1( 1)"]
)
def test_spaced_object_text_parses_alike(text):
    assert S2Object.from_text(text) == S2Object.of(B2(7, 3), P1(1))


@pytest.mark.parametrize(
    "text, message",
    [
        ("Q(3)", "cannot parse summand 'Q(3)'"),
        ("P1(x)", "cannot parse summand 'P1(x)'"),
        ("B(7,3)+", "cannot parse summand ''"),
        ("B(7)", "bipicket 'B(7)' needs two parameters"),
        ("P1(2,1)", "'P1(2,1)': pickets take a single parameter"),
        ("B(3,2)", "B2(3,2) needs 1 <= r <= m-2"),
        ("P2(1)", "P2(1) is out of range"),
        ("P1(1)+P0(0)", "P0(0) is out of range"),
    ],
)
def test_a_bad_token_raises_the_same_message_every_time(text, message):
    kept = _parse_summand.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            S2Object.from_text(text)
        assert str(info.value) == message
    # only a token that parsed is kept
    assert _parse_summand.cache_info().currsize <= kept + text.count("+")
