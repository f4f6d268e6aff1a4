"""The sharing-model registry: lookup, errors, identity, introspection."""

import pytest

from repro.simgrid.models import (
    CM02,
    LV08,
    NetworkModel,
    SharingModel,
    model_by_name,
    model_key_of,
    register_model,
    registered_models,
)
from repro.simgrid.tcpfluid import TcpFluidModel


class TestModelByName:
    def test_builtin_names_resolve(self):
        assert model_by_name("CM02") == CM02()
        assert model_by_name("LV08") == LV08()
        assert isinstance(model_by_name("tcp_fluid"), TcpFluidModel)

    def test_lookup_is_case_insensitive(self):
        assert model_by_name("lv08") == LV08()
        assert model_by_name("TCP_FLUID") == model_by_name("tcp_fluid")

    def test_unknown_name_lists_registered_models(self):
        with pytest.raises(ValueError) as err:
            model_by_name("no-such-model")
        message = str(err.value)
        assert "no-such-model" in message
        for name in ("CM02", "LV08", "tcp_fluid"):
            assert name in message

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'LV08'"):
            model_by_name("LV8")

    def test_kwargs_forward_to_factory(self):
        model = model_by_name("tcp_fluid", max_window_bytes=2 ** 16)
        assert model.max_window_bytes == 2 ** 16

    def test_bad_kwargs_raise_value_error_listing_parameters(self):
        with pytest.raises(ValueError, match="max_window_bytes"):
            model_by_name("tcp_fluid", no_such_parameter=1)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = {entry.name for entry in registered_models()}
        assert names >= {"CM02", "LV08", "tcp_fluid"}

    def test_entries_expose_parameters_with_defaults(self):
        by_name = {entry.name: entry for entry in registered_models()}
        assert by_name["LV08"].parameters() == {"tcp_gamma": 4194304.0}
        tcp = by_name["tcp_fluid"].parameters()
        assert tcp["max_window_bytes"] == 4194304.0
        assert tcp["cubic_beta"] == 0.7

    def test_entries_carry_descriptions(self):
        for entry in registered_models():
            assert entry.description

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_model("CM02", CM02)


class TestModelKey:
    def test_key_pins_every_parameter(self):
        assert model_key_of(LV08()) != model_key_of(CM02())
        assert (model_key_of(NetworkModel("LV08", bandwidth_factor=0.9))
                != model_key_of(LV08()))
        assert (model_key_of(TcpFluidModel(cubic_beta=0.5))
                != model_key_of(TcpFluidModel()))

    def test_equal_models_share_a_key(self):
        assert model_key_of(LV08()) == model_key_of(LV08())
        assert model_key_of(TcpFluidModel()) == model_key_of(TcpFluidModel())

    def test_keys_are_hashable(self):
        {model_key_of(m): m
         for m in (CM02(), LV08(), TcpFluidModel())}

    def test_keyless_objects_fall_back_to_repr(self):
        class Bare:
            def __repr__(self):
                return "Bare()"

        assert model_key_of(Bare()) == "Bare()"

    def test_time_varying_flags(self):
        assert not LV08().time_varying
        assert not CM02().time_varying
        assert TcpFluidModel().time_varying

    def test_models_are_immutable(self):
        for model in (LV08(), TcpFluidModel()):
            with pytest.raises(Exception):
                model.bandwidth_factor = 2.0


class TestProtocol:
    def test_network_model_is_a_sharing_model(self):
        assert isinstance(LV08(), SharingModel)
        assert isinstance(TcpFluidModel(), SharingModel)

    @pytest.mark.parametrize("hook, args", [
        ("model_key", ()), ("startup_latency", ((),)), ("flow_weight", ((),)),
        ("rate_bound", ((),)), ("effective_bandwidth", (1.0,)),
    ])
    def test_abstract_hooks_raise_unimplemented(self, hook, args):
        with pytest.raises(NotImplementedError):
            getattr(SharingModel(), hook)(*args)

    def test_static_models_have_no_dynamics(self):
        assert LV08().flow_dynamics(()) is None
