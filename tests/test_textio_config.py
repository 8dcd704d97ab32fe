import numpy as np
import pytest

from pinset.config import ConfigError, Field, parse_config_text, parse_override, validate
from pinset.textio import TextTensorError, format_tensor, parse_tensor, read_tensor, write_tensor


class TestTextTensor:
    def test_round_trip_exact(self, tmp_path):
        gen = np.random.default_rng(0)
        arr = gen.uniform(-1e3, 1e3, size=(3, 4, 2))
        arr[0, 0, 0] = 1.0 / 3.0
        arr[0, 1, 0] = 1e-300
        arr[1, 0, 1] = -0.1
        path = tmp_path / "t.txt"
        write_tensor(path, arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

    def test_special_values_text_and_round_trip(self):
        # signed zeros, NaN, infinities, subnormals, the largest float and
        # exponent forms, each as Python's shortest repr
        arr = np.array(
            [[0.0, -0.0, np.nan, np.inf, -np.inf], [5e-324, -2.5e-310, 1e16, 1e-5, np.finfo(np.float64).max]]
        )
        text = format_tensor(arr)
        assert text == (
            "tensor v1 2 2 5\n0.0 -0.0 nan inf -inf 5e-324 -2.5e-310 1e+16 1e-05 1.7976931348623157e+308\n"
        )
        back = parse_tensor(text)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    def test_header_format(self):
        text = format_tensor(np.zeros((2, 3)))
        assert text.splitlines()[0] == "tensor v1 2 2 3"

    def test_scalar_rank_zero(self):
        arr = parse_tensor("tensor v1 0\n2.5\n")
        assert arr.shape == ()
        assert arr == 2.5

    def test_bad_header(self):
        with pytest.raises(TextTensorError, match="header"):
            parse_tensor("matrix v1 2 2 2\n1 2 3 4")

    def test_value_count_mismatch(self):
        with pytest.raises(TextTensorError, match="expected 4 values"):
            parse_tensor("tensor v1 2 2 2\n1 2 3")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tensor v1 2 -1 -2\n1 2", "negative extent"),
            ("tensor v1 2 4294967296 4294967296\n", "expected 18446744073709551616 values"),
        ],
        ids=["negative", "product-overflows-int64"],
    )
    def test_extents_that_cannot_be_reshaped(self, text, message):
        with pytest.raises(TextTensorError, match=message):
            parse_tensor(text)

    def test_non_numeric_value(self):
        with pytest.raises(TextTensorError, match="non-numeric"):
            parse_tensor("tensor v1 1 2\n1 banana")


class TestConfigParsing:
    def test_basic_lines_and_comments(self):
        raw = parse_config_text(
            """
            # a comment
            task = quadrant
            train.epochs = 5  # trailing comment
            """
        )
        assert raw == {"task": "quadrant", "train.epochs": "5"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_override_parse(self):
        assert parse_override("optimizer.lr=0.5") == ("optimizer.lr", "0.5")
        with pytest.raises(ConfigError):
            parse_override("no-equals-here")


class TestSchemaValidation:
    SCHEMA = {
        "task": Field("str", required=True, choices=("quadrant",)),
        "optimizer.lr": Field("float", 0.01),
        "train.epochs": Field("int", 10),
        "data.shuffle": Field("bool", True),
        "model.head": Field("intlist", None),
    }

    def test_defaults_filled(self):
        out = validate({"task": "quadrant"}, self.SCHEMA)
        assert out["optimizer.lr"] == 0.01
        assert out["train.epochs"] == 10

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="optimizer.learning_rate"):
            validate({"task": "quadrant", "optimizer.learning_rate": "1"}, self.SCHEMA)

    def test_malformed_value_names_key(self):
        with pytest.raises(ConfigError, match="optimizer.lr"):
            validate({"task": "quadrant", "optimizer.lr": "abc"}, self.SCHEMA)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="task"):
            validate({}, self.SCHEMA)

    def test_choice_enforced(self):
        with pytest.raises(ConfigError, match="one of"):
            validate({"task": "circles"}, self.SCHEMA)

    def test_intlist_and_bool(self):
        out = validate(
            {"task": "quadrant", "model.head": "64,32", "data.shuffle": "false"},
            self.SCHEMA,
        )
        assert out["model.head"] == [64, 32]
        assert out["data.shuffle"] is False

    @pytest.mark.parametrize("value", ["4,,4", "64,", ",64", ","])
    def test_intlist_empty_item_named(self, value):
        with pytest.raises(ConfigError, match="bad value for model.head"):
            validate({"task": "quadrant", "model.head": value}, self.SCHEMA)

    def test_intlist_empty_value(self):
        assert validate({"task": "quadrant", "model.head": ""}, self.SCHEMA)["model.head"] == []
