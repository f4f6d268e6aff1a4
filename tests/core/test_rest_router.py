"""REST router: pattern matching, query parsing, error mapping."""

import json

import pytest

from repro.core.rest.errors import ApiError, BadRequest, NotFound
from repro.core.rest.json_codec import _sanitize, dumps, loads
from repro.core.rest.router import Request, Router


class TestRequestParsing:
    def test_multi_valued_query(self):
        request = Request.from_target("GET", "/p?transfer=a,b,1&transfer=c,d,2")
        assert request.params("transfer") == ["a,b,1", "c,d,2"]

    def test_url_decoding(self):
        request = Request.from_target(
            "GET", "/p/x?begin=2012-05-04%2008:00:00"
        )
        assert request.param("begin") == "2012-05-04 08:00:00"

    def test_param_default_and_missing(self):
        request = Request.from_target("GET", "/p")
        assert request.param("x", default="7") == "7"
        with pytest.raises(BadRequest):
            request.param("x")

    def test_float_param(self):
        request = Request.from_target("GET", "/p?v=2.5&bad=x")
        assert request.float_param("v") == 2.5
        with pytest.raises(BadRequest):
            request.float_param("bad")


class TestRouting:
    def build(self):
        router = Router()

        @router.get("/pilgrim/rrd/{tool}/{site}/{host}/{metric}.rrd")
        def fetch(request, tool, site, host, metric):
            return {"tool": tool, "site": site, "host": host, "metric": metric}

        @router.get("/pilgrim/platforms")
        def platforms(request):
            return {"items": []}

        return router

    def test_paper_example_path_binds_metric(self):
        router = self.build()
        status, payload = router.dispatch(Request.from_target(
            "GET",
            "/pilgrim/rrd/ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd/",
        ))
        assert status == 200
        assert payload == {"tool": "ganglia", "site": "Lyon",
                           "host": "sagittaire-1.lyon.grid5000.fr",
                           "metric": "pdu"}

    def test_trailing_slash_optional(self):
        router = self.build()
        for path in ("/pilgrim/platforms", "/pilgrim/platforms/"):
            status, _ = router.dispatch(Request.from_target("GET", path))
            assert status == 200

    def test_unknown_path_404(self):
        router = self.build()
        status, payload = router.dispatch(Request.from_target("GET", "/nope"))
        assert status == 404
        assert payload["error"] == "NotFound"

    def test_wrong_method_405(self):
        router = self.build()
        status, payload = router.dispatch(
            Request.from_target("POST", "/pilgrim/platforms")
        )
        assert status == 405

    def test_handler_api_error_mapped(self):
        router = Router()

        @router.get("/boom")
        def boom(request):
            raise NotFound("no such thing")

        status, payload = router.dispatch(Request.from_target("GET", "/boom"))
        assert status == 404
        assert "no such thing" in payload["message"]

    def test_handler_crash_becomes_500(self):
        router = Router()

        @router.get("/crash")
        def crash(request):
            raise RuntimeError("oops")

        status, payload = router.dispatch(Request.from_target("GET", "/crash"))
        assert status == 500
        assert "oops" in payload["message"]

    def test_placeholder_requires_nonempty_segment(self):
        router = self.build()
        status, _ = router.dispatch(Request.from_target(
            "GET", "/pilgrim/rrd/ganglia/Lyon/h/.rrd"))
        assert status == 404


class TestJsonCodec:
    def test_nan_and_inf_become_null(self):
        text = dumps({"a": float("nan"), "b": [float("inf"), 1.0]})
        assert loads(text) == {"a": None, "b": [None, 1.0]}

    def test_nested_roundtrip(self):
        payload = {"x": [1, 2, {"y": "z"}], "w": 3.5}
        assert loads(dumps(payload)) == payload

    @staticmethod
    def always_sanitized(payload):
        """``dumps`` as it was before it tried the encoder first."""
        return json.dumps(_sanitize(payload), allow_nan=False,
                          separators=(",", ":"))

    @pytest.mark.parametrize("payload", [
        [{"src": "a", "dst": "b", "size": 5e8, "duration": 4.13}] * 3,
        {"t": (1, 2.5, ("x", None)), "e": [], "n": {"m": {"k": -0.0}}},
        (1e-300, 1e300, True, "é"),
        {"a": float("nan"), "b": [float("inf"), 1.0]},
        [{"deep": ({"er": [1.0, (float("-inf"), 2)]},)}, float("nan")],
        (float("inf"),),
    ])
    def test_bytes_match_the_always_sanitizing_form(self, payload):
        assert dumps(payload) == self.always_sanitized(payload)

    def test_non_finite_floats_are_null_at_any_depth(self):
        payload = [{"deep": ({"er": [1.0, (float("-inf"), 2)]},)},
                   float("nan")]
        assert loads(dumps(payload)) == [{"deep": [{"er": [1.0, [None, 2]]}]},
                                         None]

    def test_what_json_cannot_carry_still_raises(self):
        with pytest.raises(TypeError):
            dumps({"a": object()})
        with pytest.raises(ValueError):
            dumps({float("nan"): 1})  # keys are never rewritten

