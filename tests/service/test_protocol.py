"""Every rejection path of the service wire protocol."""

import pytest

from repro.service.protocol import (
    DEFAULT_SEED,
    MAX_GRID_POINTS,
    MAX_N,
    ProtocolError,
    parse_advise_request,
    parse_cost_request,
    parse_sweep_request,
    spec_key,
)


def _cost(**overrides):
    payload = {"kernel": "sum", "model": "hmm", "n": 1024, "p": 64}
    payload.update(overrides)
    return payload


def _reject(payload, *, field=None, code=None):
    with pytest.raises(ProtocolError) as err:
        parse_cost_request(payload)
    if field is not None:
        assert err.value.field == field
    if code is not None:
        assert err.value.code == code
    return err.value


class TestCostValidation:
    def test_happy_path_defaults(self):
        spec = parse_cost_request(_cost())
        assert spec == {
            "kernel": "sum", "model": "hmm", "mode": "replay",
            "seed": DEFAULT_SEED, "n": 1024, "k": 0, "p": 64,
            "w": 16, "l": 16, "d": 8, "backend": "auto",
        }

    def test_backend_field(self):
        assert parse_cost_request(_cost(backend="native"))["backend"] == \
            "native"
        assert parse_cost_request(_cost(backend="python"))["backend"] == \
            "python"
        _reject(_cost(backend="fortran"), field="backend",
                code="invalid_param")

    def test_backend_not_in_spec_key(self):
        # Backends are bit-identical, so they must coalesce in the
        # batcher and share cache identity.
        a = parse_cost_request(_cost(backend="native"))
        b = parse_cost_request(_cost(backend="python"))
        assert spec_key(a) == spec_key(b)

    def test_body_must_be_object(self):
        err = _reject([1, 2, 3], code="invalid_body")
        assert "JSON object" in err.message

    def test_missing_kernel(self):
        payload = _cost()
        del payload["kernel"]
        _reject(payload, field="kernel", code="invalid_param")

    def test_unknown_kernel_and_model(self):
        _reject(_cost(kernel="fft"), field="kernel")
        _reject(_cost(model="tpu"), field="model")
        _reject(_cost(mode="streaming"), field="mode")

    def test_missing_n(self):
        payload = _cost()
        del payload["n"]
        _reject(payload, field="n", code="missing_param")

    @pytest.mark.parametrize("name", ["n", "p", "w", "l", "d"])
    def test_nonpositive_params_rejected(self, name):
        _reject(_cost(**{name: 0}), field=name, code="invalid_param")
        _reject(_cost(**{name: -3}), field=name, code="invalid_param")

    def test_oversized_n_rejected(self):
        _reject(_cost(n=MAX_N + 1), field="n", code="invalid_param")

    def test_bool_is_not_an_integer(self):
        err = _reject(_cost(w=True), field="w", code="invalid_param")
        assert "integer" in err.message

    def test_non_integer_param(self):
        _reject(_cost(p="many"), field="p", code="invalid_param")
        _reject(_cost(l=16.5), field="l", code="invalid_param")

    @pytest.mark.parametrize("w", [3, 5, 6, 7, 12, 1000])
    def test_width_must_be_power_of_two(self, w):
        err = _reject(_cost(w=w), field="w", code="invalid_param")
        assert "power of two" in err.message

    def test_negative_seed_rejected(self):
        _reject(_cost(seed=-1), field="seed")

    def test_unknown_field_rejected(self):
        err = _reject(_cost(warp_size=32), code="unknown_field")
        assert "warp_size" in err.message

    def test_sum_rejects_k(self):
        _reject(_cost(k=8), field="k", code="invalid_param")

    def test_convolution_requires_k(self):
        _reject(_cost(kernel="convolution"), field="k")
        _reject(_cost(kernel="convolution", k=0), field="k")

    def test_convolution_k_le_n(self):
        _reject(_cost(kernel="convolution", k=2048, n=1024), field="k")
        spec = parse_cost_request(_cost(kernel="convolution", k=16))
        assert spec["k"] == 16

    def test_error_body_is_structured(self):
        err = _reject(_cost(w=5))
        body = err.body()
        assert body["error"]["code"] == "invalid_param"
        assert body["error"]["field"] == "w"
        assert "power of two" in body["error"]["message"]


class TestAdviseValidation:
    def test_query_strings_converted(self):
        spec = parse_advise_request(
            {"kernel": "sum", "model": "dmm", "n": "1024", "p": "64"}
        )
        assert spec["n"] == 1024 and spec["p"] == 64

    def test_non_integer_query_value(self):
        with pytest.raises(ProtocolError) as err:
            parse_advise_request(
                {"kernel": "sum", "model": "dmm", "n": "lots", "p": "64"}
            )
        assert err.value.field == "n"

    @pytest.mark.parametrize("model", ["sequential", "pram"])
    def test_only_machine_models_advisable(self, model):
        with pytest.raises(ProtocolError) as err:
            parse_advise_request(
                {"kernel": "sum", "model": model, "n": "1024", "p": "64"}
            )
        assert err.value.field == "model"
        assert "memory-machine" in err.value.message


class TestSweepValidation:
    def _sweep(self, **overrides):
        payload = {
            "kernel": "sum", "model": "hmm", "p": 64,
            "axes": {"n": [512, 1024], "l": [16, 32]},
        }
        payload.update(overrides)
        return payload

    def test_expansion_order_and_meta(self):
        meta, specs = parse_sweep_request(self._sweep())
        assert meta == {"kernel": "sum", "model": "hmm", "mode": "replay",
                        "seed": DEFAULT_SEED}
        assert [(s["n"], s["l"]) for s in specs] == [
            (512, 16), (512, 32), (1024, 16), (1024, 32),
        ]

    def test_axes_required_and_object(self):
        with pytest.raises(ProtocolError):
            parse_sweep_request({"kernel": "sum", "model": "hmm"})
        with pytest.raises(ProtocolError):
            parse_sweep_request(self._sweep(axes=[1, 2]))
        with pytest.raises(ProtocolError) as err:
            parse_sweep_request(self._sweep(axes={}))
        assert err.value.field == "axes"

    def test_axis_must_be_nonempty_list(self):
        with pytest.raises(ProtocolError) as err:
            parse_sweep_request(self._sweep(axes={"n": []}))
        assert err.value.field == "axes.n"
        with pytest.raises(ProtocolError):
            parse_sweep_request(self._sweep(axes={"n": 1024}))

    def test_unsweepable_axis(self):
        with pytest.raises(ProtocolError) as err:
            parse_sweep_request(self._sweep(axes={"seed": [1, 2]}))
        assert err.value.field == "axes.seed"

    def test_grid_bound_enforced_before_expansion(self):
        side = int(MAX_GRID_POINTS ** 0.5) + 1
        axes = {"n": [1 << i for i in range(4, 4 + side)],
                "p": list(range(1, side + 1))}
        assert side * side > MAX_GRID_POINTS
        with pytest.raises(ProtocolError) as err:
            parse_sweep_request(self._sweep(axes=axes))
        assert err.value.code == "grid_too_large"

    def test_bad_grid_point_names_the_point(self):
        with pytest.raises(ProtocolError) as err:
            parse_sweep_request(self._sweep(n=1024, axes={"w": [16, 5]}))
        assert err.value.field == "w"
        assert "grid point" in err.value.message

    def test_scalars_validated_too(self):
        with pytest.raises(ProtocolError) as err:
            parse_sweep_request(self._sweep(p=0))
        assert err.value.field == "p"


class TestSpecKey:
    def test_key_is_order_insensitive_and_complete(self):
        a = parse_cost_request(_cost())
        b = parse_cost_request(dict(reversed(list(_cost().items()))))
        assert spec_key(a) == spec_key(b)
        c = parse_cost_request(_cost(seed=1))
        assert spec_key(a) != spec_key(c)
