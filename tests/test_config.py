import pytest

from fracdyn.expconfig import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from fracdyn.svgplot import line_chart

FULL = ExperimentConfig(
    system="maxwell-bloch-5d-controlled",
    alpha=0.65,
    h=0.01,
    steps=500,
    epsilon=0.01,
    gains=(1.2, 1.2, 0.5, 0.5, 0.0),
    target=("e1", 0.4330127018922193, 0.25),
    seed=7,
    output_dir="out",
)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("cfg", [
        FULL,
        ExperimentConfig(system="zero-field-5d", alpha=1.0, h=0.1, steps=3,
                         x0=(0.1 + 0.2, -1e-17, 3.0, 0.0, 1e300 * 1e-300)),
        ExperimentConfig(system="maxwell-bloch-5d", alpha=0.3, h=0.005, steps=10,
                         epsilon=-0.25, target=("e2", -0.125)),
        ExperimentConfig(system="linear-decay", alpha=0.65, h=0.02, steps=50,
                         x0=(1.0,), seed=123, output_dir="runs/a"),
    ])
    def test_parse_of_serialize_is_identity(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_comments_and_commas_tolerated(self):
        text = """
[run]
system = linear-decay   ; the scalar test problem
alpha = 0.5
h = 0.1
steps = 5

[initial]
x0 = 1.0, 2.0
"""
        cfg = parse_config(text)
        assert cfg.system == "linear-decay"
        assert cfg.x0 == (1.0, 2.0)
        assert cfg.seed == 0 and cfg.output_dir == "."


class TestConfigValidation:
    def test_missing_run_section(self):
        with pytest.raises(ConfigError):
            parse_config("[initial]\nx0 = 1.0\n")

    def test_x0_and_epsilon_are_exclusive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(system="s", alpha=0.5, h=0.1, steps=1,
                             x0=(1.0,), epsilon=0.1, target=("e2", 0.0))
        with pytest.raises(ConfigError):
            ExperimentConfig(system="s", alpha=0.5, h=0.1, steps=1)

    def test_epsilon_needs_target(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(system="s", alpha=0.5, h=0.1, steps=1, epsilon=0.01)

    def test_unknown_target_family(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(system="s", alpha=0.5, h=0.1, steps=1,
                             epsilon=0.01, target=("e9", 1.0))
        with pytest.raises(ConfigError):
            ExperimentConfig(system="s", alpha=0.5, h=0.1, steps=1,
                             epsilon=0.01, target=("e1", 1.0))

    def test_parse_errors_name_their_source(self):
        for kwargs, name in (({}, "'<string>'"), ({"source": "exp.cfg"}, "'exp.cfg'")):
            with pytest.raises(ConfigError, match=f"file: {name}, line: 1"):
                parse_config("alpha = 1\n[run]\n", **kwargs)

    def test_unparseable_values(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nsystem = s\nalpha = fast\nh = 0.1\nsteps = 5\n")


class TestLoadConfig:
    def test_seed_env_override(self, tmp_path, monkeypatch):
        # the stored seed is what a run records; the environment cannot change it
        path = tmp_path / "exp.cfg"
        path.write_text(serialize_config(FULL), encoding="utf-8")
        assert load_config(path).seed == 7
        for value in ("99", "soon"):
            monkeypatch.setenv("FRACDYN_SEED", value)
            assert load_config(path) == FULL


class TestSvg:
    def test_deterministic_output(self):
        series = [0.1 * i * i - 1.0 for i in range(50)]
        first = line_chart(series, y_label="x^1(n)")
        second = line_chart(series, y_label="x^1(n)")
        assert first == second
        assert first.startswith("<svg ")
        assert first.rstrip().endswith("</svg>")
        assert "polyline" in first
        assert "x^1(n)" in first and ">n<" in first

    def test_flat_series(self):
        svg = line_chart([2.5] * 10, y_label="x^3(n)")
        assert "polyline" in svg

    def test_single_point_and_empty(self):
        assert "polyline" in line_chart([1.0], y_label="y")
        with pytest.raises(ValueError):
            line_chart([], y_label="y")
