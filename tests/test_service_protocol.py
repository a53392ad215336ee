"""Tests for the service wire protocol (encode/decode/validate)."""

import json

import pytest

from repro.service.protocol import (
    AlreadyWatchedError,
    BadRequestError,
    DeadlineExceededError,
    OverloadedError,
    Request,
    ServiceError,
    UnknownOpError,
    decode_paths,
    decode_request,
    decode_response,
    encode_paths,
    error_from_wire,
    error_response,
    ok_response,
)


def encode(payload) -> str:
    return json.dumps(payload)


class TestDecodeRequest:
    def test_query_round_trip(self):
        req = decode_request(
            encode({"id": 1, "op": "query", "s": 3, "t": 42, "k": 6})
        )
        assert req.id == 1
        assert req.op == "query"
        assert req.args == {"s": 3, "t": 42, "k": 6}
        assert req.deadline_ms is None

    def test_deadline_is_kept(self):
        req = decode_request(
            encode({"id": "a", "op": "stats", "deadline_ms": 250})
        )
        assert req.deadline_ms == 250

    def test_string_vertices_allowed(self):
        req = decode_request(
            encode({"id": 2, "op": "unwatch", "s": "alice", "t": "bob"})
        )
        assert req.args == {"s": "alice", "t": "bob"}

    def test_watch_k_is_optional(self):
        req = decode_request(encode({"id": 3, "op": "watch", "s": 0, "t": 1}))
        assert "k" not in req.args
        req = decode_request(
            encode({"id": 3, "op": "watch", "s": 0, "t": 1, "k": 4})
        )
        assert req.args["k"] == 4

    def test_update_fields(self):
        req = decode_request(
            encode({"id": 4, "op": "update", "u": 1, "v": 2, "insert": False})
        )
        assert req.args == {"u": 1, "v": 2, "insert": False}

    def test_metrics_format_is_optional_and_validated(self):
        req = decode_request(encode({"id": 5, "op": "metrics"}))
        assert req.op == "metrics"
        assert "format" not in req.args
        req = decode_request(
            encode({"id": 5, "op": "metrics", "format": "prometheus"})
        )
        assert req.args == {"format": "prometheus"}
        with pytest.raises(BadRequestError):
            decode_request(
                encode({"id": 5, "op": "metrics", "format": "xml"})
            )

    def test_batch_update_triples(self):
        req = decode_request(
            encode({
                "id": 5,
                "op": "batch_update",
                "updates": [[1, 2, True], ["x", "y", False]],
            })
        )
        assert req.args["updates"] == [(1, 2, True), ("x", "y", False)]

    def test_request_to_wire_round_trips(self):
        original = Request(9, "query", {"s": 1, "t": 2, "k": 3}, 100)
        again = decode_request(original.to_wire())
        assert again == original

    @pytest.mark.parametrize("line", [
        "not json at all",
        "[1, 2, 3]",
        '{"op": 5}',
        '{"id": 1}',
        '{"id": [], "op": "stats"}',
        '{"id": 1, "op": "query", "s": 0, "t": 1}',            # missing k
        '{"id": 1, "op": "query", "s": 0, "t": 1, "k": -1}',   # bad k
        '{"id": 1, "op": "query", "s": 0, "t": 1, "k": true}',
        '{"id": 1, "op": "query", "s": [0], "t": 1, "k": 2}',  # bad vertex
        '{"id": 1, "op": "query", "s": true, "t": 1, "k": 2}',
        '{"id": 1, "op": "update", "u": 0, "v": 1, "insert": 1}',
        '{"id": 1, "op": "batch_update", "updates": 3}',
        '{"id": 1, "op": "batch_update", "updates": [[1, 2]]}',
        '{"id": 1, "op": "batch_update", "updates": [[1, 2, "yes"]]}',
        '{"id": 1, "op": "stats", "deadline_ms": -5}',
        '{"id": 1, "op": "stats", "deadline_ms": "soon"}',
    ])
    def test_malformed_requests_raise_bad_request(self, line):
        with pytest.raises(BadRequestError):
            decode_request(line)

    def test_unknown_op_has_its_own_code(self):
        with pytest.raises(UnknownOpError, match="teleport"):
            decode_request(encode({"id": 1, "op": "teleport"}))

    def test_bytes_input_accepted(self):
        req = decode_request(b'{"id": 1, "op": "stats"}')
        assert req.op == "stats"


class TestResponses:
    def test_ok_round_trip(self):
        wire = ok_response(7, {"count": 2}).to_wire()
        response = decode_response(wire)
        assert response.ok and response.id == 7
        assert response.result == {"count": 2}
        assert response.raise_for_error() is response

    def test_error_round_trip_restores_exception_type(self):
        wire = error_response(
            8, OverloadedError("busy", retry_after_ms=50)
        ).to_wire()
        response = decode_response(wire)
        assert not response.ok
        with pytest.raises(OverloadedError) as info:
            response.raise_for_error()
        assert info.value.retry_after_ms == 50
        assert info.value.code == "overloaded"

    def test_every_error_class_round_trips(self):
        for cls in (BadRequestError, AlreadyWatchedError,
                    DeadlineExceededError, OverloadedError):
            restored = error_from_wire(cls("boom").to_wire())
            assert type(restored) is cls
            assert restored.message == "boom"

    def test_unknown_error_code_degrades_to_internal(self):
        restored = error_from_wire({"code": "martian", "message": "?"})
        assert isinstance(restored, ServiceError)
        assert restored.code == "internal"

    def test_decode_response_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_response("nope")
        with pytest.raises(ValueError):
            decode_response('{"id": 1}')


class TestPaths:
    def test_encode_decode_round_trip(self):
        paths = [(0, 1, 2), ("s", "a", "t")]
        assert decode_paths(encode_paths(paths)) == paths

    def test_encoded_paths_are_json_serializable(self):
        json.dumps(encode_paths([(0, 1), (2, 3, 4)]))

    def test_tuple_paths_go_out_as_the_list_form_bytes(self):
        paths = [(0, 1), (2, "x", 4), ("s", "t")]
        as_tuples = ok_response(3, {"paths": encode_paths(paths)})
        as_lists = ok_response(3, {"paths": [list(p) for p in paths]})
        assert as_tuples.to_wire() == as_lists.to_wire()
