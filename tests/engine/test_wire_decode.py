"""The canonical-body recogniser in front of ``json.loads``.

``server._canonical_arrays`` decodes the body ``json.dumps`` writes for
a query batch in one strict pass, and returns ``None`` for every other
body, which then takes the ``json.loads`` path.  The oracle: on any
bytes it returns ``None``, or ``(lows, highs, workload)`` equal in value
and dtype to ``np.asarray(json.loads(body)[key], dtype=np.int64)`` and
``json.loads(body).get("workload", "")``.  So it never accepts a body
``json.loads`` rejects.  Through the server's query handler both paths
give the same statuses, payloads and counters.
"""

import asyncio
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PrivateFrequencyMatrix, packed_from_intervals
from repro.engine import Engine, EngineConfig, EngineServer, QueryRequest
from repro.engine import server as server_module
from repro.engine.client import _query_payload
from repro.engine.server import _canonical_arrays
from repro.methods._grid import axis_intervals

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow],
)

#: Largest bound the canonical form admits (18 digits).
MAX_BOUND = 10**18 - 1

#: Printable ASCII without the two characters json.dumps escapes.
PLAIN = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\')


def canonical(lows, highs, workload=None) -> bytes:
    payload = {"lows": lows, "highs": highs}
    if workload is not None:
        payload["workload"] = workload
    return json.dumps(payload).encode("utf-8")


def assert_agrees(body: bytes):
    """The oracle; returns what the recogniser returned."""
    decoded = _canonical_arrays(body)
    if decoded is None:
        return None
    payload = json.loads(body)  # raises if the recogniser over-accepts
    assert isinstance(payload, dict)
    assert set(payload) <= {"lows", "highs", "workload"}
    lows, highs, workload = decoded
    for got, key in ((lows, "lows"), (highs, "highs")):
        want = np.asarray(payload[key], dtype=np.int64)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert all(type(v) is int for row in payload[key] for v in row)
    assert lows.shape == highs.shape
    assert workload == payload.get("workload", "")
    return decoded


@st.composite
def canonical_bodies(draw):
    """A body as json.dumps writes it: (q, d) non-negative int lists in
    the canonical range, and maybe a plain workload string."""
    q = draw(st.integers(1, 6))
    d = draw(st.integers(1, 6))
    bound = st.one_of(st.integers(0, 12), st.integers(0, MAX_BOUND))
    rows = st.lists(
        st.lists(bound, min_size=d, max_size=d), min_size=q, max_size=q
    )
    workload = st.one_of(st.none(), st.text(alphabet=PLAIN, max_size=12))
    return canonical(draw(rows), draw(rows), draw(workload))


#: Bytes a mutation inserts or overwrites: the canonical alphabet
#: and the tokens it must refuse.
MUTATION_BYTES = b'0123456789,[] "{}:-.eE+\\\x00\ttruefalsnowkld'


@st.composite
def mutated_bodies(draw):
    body = bytearray(draw(canonical_bodies()))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "cut"]))
        at = draw(st.integers(0, len(body)))
        byte = draw(st.sampled_from(MUTATION_BYTES))
        if kind == "insert":
            body[at:at] = bytes([byte])
        elif kind == "delete":
            del body[at:at + 1]
        elif kind == "replace":
            body[at:at + 1] = bytes([byte])
        else:
            del body[at:]
    return bytes(body)


#: Bound spellings around the canonical ones: empty, leading zeros,
#: 19 and 20 digits, signs and fractions.
SPELLINGS = st.one_of(
    st.integers(0, 10**18 - 1).map(str),
    st.sampled_from(["", "0", "00", "01", "-0", "-1", "1.5", "1e3",
                     "1000000000000000000", "99999999999999999999"]),
)


#: Separators inside a row and between rows: mostly json.dumps's, and
#: some with a digit or a space out of place.
BOUND_SEPARATORS = st.sampled_from([", "] * 6 + [",", ",0 ", " ,", ",  "])
ROW_SEPARATORS = st.sampled_from(
    ["], ["] * 6 + ["],[", "]0, [", "], 0[", "] , ["]
)


@st.composite
def spelled_bodies(draw):
    """Bodies in the canonical frame whose rows are drawn as text: any
    row lengths, bound spellings and separators, canonical or not."""
    def joined(parts, separators):
        text = parts[0] if parts else ""
        for part in parts[1:]:
            text += draw(separators) + part
        return text

    def rows():
        return joined(
            [
                joined(draw(st.lists(SPELLINGS, max_size=4)),
                       BOUND_SEPARATORS)
                for _ in range(draw(st.integers(0, 3)))
            ],
            ROW_SEPARATORS,
        )
    workload = draw(st.sampled_from(["", ', "workload": "w"']))
    return (
        f'{{"lows": [[{rows()}]], "highs": [[{rows()}]]{workload}}}'
    ).encode("ascii")


class TestOracle:
    @PROFILE
    @given(canonical_bodies())
    def test_canonical_bodies_are_recognised(self, body):
        assert assert_agrees(body) is not None

    @PROFILE
    @given(mutated_bodies())
    def test_mutated_bodies_decline_or_agree(self, body):
        assert_agrees(body)

    @PROFILE
    @given(spelled_bodies())
    def test_spelled_rows_decline_or_agree(self, body):
        assert_agrees(body)

    @PROFILE
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_decline_or_agree(self, body):
        assert_agrees(body)

    @PROFILE
    @given(
        st.binary(max_size=40).map(lambda tail: b'{"lows": [[' + tail)
    )
    def test_bytes_after_the_head_decline_or_agree(self, body):
        assert_agrees(body)

    @PROFILE
    @given(st.text(max_size=12))
    def test_workload_decodes_or_declines(self, workload):
        body = canonical([[1, 2]], [[3, 4]], workload)
        decoded = assert_agrees(body)
        plain = all(c in PLAIN for c in workload)
        assert (decoded is not None) == plain


class TestDeclines:
    @pytest.mark.parametrize(
        "body",
        [
            # Numbers outside 0|[1-9][0-9]{0,17}.
            b'{"lows": [[-0, 1]], "highs": [[2, 3]]}',
            b'{"lows": [[-1, 1]], "highs": [[2, 3]]}',
            b'{"lows": [[1e3, 1]], "highs": [[2, 3]]}',
            b'{"lows": [[1.0, 1]], "highs": [[2, 3]]}',
            b'{"lows": [[007, 1]], "highs": [[2, 3]]}',
            b'{"lows": [[1000000000000000000, 1]], "highs": [[2, 3]]}',
            b'{"lows": [[9223372036854775807, 1]], "highs": [[2, 3]]}',
            b'{"lows": [[99999999999999999999, 1]], "highs": [[2, 3]]}',
            b'{"lows": [[true, 1]], "highs": [[2, 3]]}',
            b'{"lows": [["1", 1]], "highs": [[2, 3]]}',
            # Empty bounds, and leading zeros, at every position of a row.
            b'{"lows": [[, 1]], "highs": [[2, 3]]}',
            b'{"lows": [[1, ]], "highs": [[2, 3]]}',
            b'{"lows": [[1, , 2]], "highs": [[2, 3, 4]]}',
            b'{"lows": [[1], []], "highs": [[2], [3]]}',
            b'{"lows": [[01]], "highs": [[2]]}',
            b'{"lows": [[1, 00]], "highs": [[2, 3]]}',
            b'{"lows": [[1, 2], [3, 09]], "highs": [[2, 3], [4, 9]]}',
            b'{"lows": [[1, 2]], "highs": [[2, 00]]}',
            # Digits out of place: inside a separator, around a row.
            b'{"lows": [[0, 0,0 0]], "highs": [[0, 0, 0]]}',
            b'{"lows": [[1, 2]0, [3, 4]], "highs": [[1, 2], [3, 4]]}',
            b'{"lows": [[1, 2], 0[3, 4]], "highs": [[1, 2], [3, 4]]}',
            b'{"lows": [0[0]], "highs": [[0]]}',
            b'{"lows": [[0]0], "highs": [[0]]}',
            b'{"lows": [[0]], "highs": [0[0]]}',
            # Shapes: ragged rows, empty rows, no rows, lows/highs unequal.
            b'{"lows": [[1, 2], [3]], "highs": [[4, 5], [6, 7]]}',
            b'{"lows": [[1, 2], [3, 4, 5]], "highs": [[4, 5], [6, 7]]}',
            b'{"lows": [[]], "highs": [[]]}',
            b'{"lows": [], "highs": []}',
            b'{"lows": [[1, 2]], "highs": [[4, 5], [6, 7]]}',
            b'{"lows": [[1, 2]], "highs": [[4, 5, 6]]}',
            b'{"lows": [1, 2], "highs": [4, 5]}',
            b'{"lows": [[[1, 2]]], "highs": [[[4, 5]]]}',
            # Keys: duplicated, reordered, extra, missing.
            b'{"lows": [[1, 2]], "highs": [[4, 5]], "highs": [[6, 7]]}',
            b'{"lows": [[1, 2]], "lows": [[1, 2]], "highs": [[4, 5]]}',
            b'{"highs": [[4, 5]], "lows": [[1, 2]]}',
            b'{"lows": [[1, 2]], "workload": "w", "highs": [[4, 5]]}',
            b'{"lows": [[1, 2]], "highs": [[4, 5]], "extra": 1}',
            b'{"lows": [[1, 2]]}',
            # Workload strings with escapes, control characters or
            # non-ASCII bytes; a non-string workload.
            b'{"lows": [[1, 2]], "highs": [[4, 5]], "workload": "a\\nb"}',
            b'{"lows": [[1, 2]], "highs": [[4, 5]], "workload": "a\\"b"}',
            b'{"lows": [[1, 2]], "highs": [[4, 5]], "workload": "\\u00e9"}',
            b'{"lows": [[1, 2]], "highs": [[4, 5]], "workload": "a\nb"}',
            b'{"lows": [[1, 2]], "highs": [[4, 5]], "workload": "a\x7fb"}',
            b'{"lows": [[1, 2]], "highs": [[4, 5]], "workload": "\xc3\xa9"}',
            b'{"lows": [[1, 2]], "highs": [[4, 5]], "workload": 3}',
            # Separators and framing other than json.dumps's.
            b'{"lows":[[1,2]],"highs":[[4,5]]}',
            b'{"lows": [[1,2]], "highs": [[4,5]]}',
            b' {"lows": [[1, 2]], "highs": [[4, 5]]}',
            b'{"lows": [[1, 2]], "highs": [[4, 5]]} ',
            b'{"lows": [[1, 2]], "highs": [[4, 5]]}\n',
            b'{"lows": [[1, 2]], "highs": [[4, 5]]}x',
            b'\xef\xbb\xbf{"lows": [[1, 2]], "highs": [[4, 5]]}',
            # Truncated bodies.
            b'{"lows": [[1, 2]], "highs": [[4, 5]]',
            b'{"lows": [[1, 2]], "highs": [[4, 5',
            b'{"lows": [[1, 2',
            b'{"lows": [[',
            b"",
        ],
    )
    def test_declines(self, body):
        assert _canonical_arrays(body) is None

    def test_largest_bound_is_exact(self):
        body = canonical([[0, MAX_BOUND]], [[MAX_BOUND, MAX_BOUND]])
        lows, highs, _ = assert_agrees(body)
        assert lows[0, 1] == highs[0, 0] == MAX_BOUND

    def test_client_payload_is_recognised(self):
        """The client's own encoding takes the strict pass."""
        lows = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int64)
        request = QueryRequest(lows, lows + 7, workload="client-3")
        decoded = assert_agrees(_query_payload(request))
        assert decoded is not None
        assert np.array_equal(decoded[0], lows)
        assert np.array_equal(decoded[1], lows + 7)
        assert decoded[2] == "client-3"

    def test_zero_and_zero_digits_after_the_first_are_bounds(self):
        body = canonical([[0, 10, 100, 0]], [[0, 20, 1000, 9]])
        lows, highs, _ = assert_agrees(body)
        assert lows.tolist() == [[0, 10, 100, 0]]


# ----------------------------------------------------------------------
# Both paths through the server's query handler
# ----------------------------------------------------------------------
SHAPE = (64, 64)


@pytest.fixture(scope="module")
def engine():
    intervals = [axis_intervals(s, 16) for s in SHAPE]
    noisy = np.random.default_rng(3).poisson(20.0, size=16 * 16).astype(float)
    packed = packed_from_intervals(intervals, noisy, SHAPE)
    return Engine(PrivateFrequencyMatrix.from_packed(packed, method="grid"),
                  EngineConfig(plan="broadcast"))


#: Bodies whose every outcome the strict pass must reproduce: answers,
#: each 400 cause, and the 413 batch cap (``max_batch_queries=3``).
HTTP_BODIES = [
    canonical([[0, 0], [5, 9]], [[63, 63], [20, 30]]),
    canonical([[0, 0]], [[63, 63]], "tag"),
    canonical([[0, 0]], [[63, 63]], ""),
    canonical([[0, 0]], [[64, 63]]),
    canonical([[9, 0]], [[8, 63]]),
    canonical([[0, 0, 0]], [[1, 1, 1]]),
    canonical([[0]], [[1]]),
    canonical([[0, 0]] * 4, [[1, 1]] * 4),
    canonical([[0, 0]], [[999999999999999999, 1]]),
    canonical([[0, 0]], [[1000000000000000000, 1]]),
    b'{"lows": [[0, 0]], "highs": [[1, 1]], "workload": 5}',
    b'{"lows": [], "highs": []}',
]


def http_outcomes(engine, bodies):
    """(status, payload without elapsed time) per body, then counters."""

    async def run():
        async with EngineServer(engine, port=0, max_batch_queries=3) as srv:
            outcomes = []
            for body in bodies:
                status, payload, _ = await srv._query(body)
                payload.pop("elapsed_seconds", None)
                outcomes.append((status, payload))
            return outcomes, srv.statz()["counters"]

    return asyncio.run(run())


class TestBothPaths:
    def test_statuses_payloads_and_counters_are_identical(
        self, engine, monkeypatch
    ):
        assert sum(_canonical_arrays(b) is not None for b in HTTP_BODIES) == 9
        strict = http_outcomes(engine, HTTP_BODIES)
        monkeypatch.setattr(server_module, "_canonical_arrays", lambda b: None)
        assert http_outcomes(engine, HTTP_BODIES) == strict
        statuses = [status for status, _ in strict[0]]
        assert statuses == [200, 200, 200, 400, 400, 400, 400, 413,
                            400, 400, 400, 200]
