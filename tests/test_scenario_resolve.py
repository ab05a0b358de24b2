"""Scenario resolution: extends chains, overlays, schema errors, binding.

The error-message tests pin the ergonomics the ISSUE asks for: a typo
anywhere in a nested machine section must surface the full dotted path
and a did-you-mean suggestion, as one ConfigurationError — never a
KeyError deep in a dataclass constructor.
"""

import pytest

from repro.core.config import WritePolicy, base_architecture
from repro.errors import ConfigurationError
from repro.scenario import (
    DELETE,
    resolve_scenario,
    scenario_sha256,
)
from repro.scenario.driver import bind_params, expand_grid


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = "[scenario]\nname = 'minimal'\n"


class TestResolve:
    def test_minimal_document_gets_defaults(self, tmp_path):
        resolved = resolve_scenario(write(tmp_path, "s.toml", MINIMAL))
        assert resolved.machine == base_architecture()
        assert resolved.scale.instructions_per_benchmark == 400_000
        assert resolved.engine == "batched"
        assert resolved.energy is None
        assert resolved.experiment is None
        assert resolved.axes == {}
        assert resolved.base_document is None

    def test_extends_merges_and_strips(self, tmp_path):
        write(tmp_path, "base.toml", """
[scenario]
name = "base"
[machine.l2]
access_time = 6
""")
        child = write(tmp_path, "child.toml", """
[scenario]
name = "child"
extends = "base.toml"
[machine.l2]
access_time = 9
""")
        resolved = resolve_scenario(child)
        assert resolved.name == "child"
        assert resolved.machine.l2.access_time == 9
        assert "extends" not in resolved.document["scenario"]
        assert resolved.base_document is not None

    def test_extends_cycle_detected(self, tmp_path):
        write(tmp_path, "a.toml",
              "[scenario]\nname = 'a'\nextends = 'b.toml'\n")
        path = write(tmp_path, "b.toml",
                     "[scenario]\nname = 'b'\nextends = 'a.toml'\n")
        with pytest.raises(ConfigurationError, match="cycle"):
            resolve_scenario(path)

    def test_overlay_wins_over_file(self, tmp_path):
        base = write(tmp_path, "s.toml",
                     MINIMAL + "[workload]\nlevel = 8\n")
        overlay = write(tmp_path, "o.toml", "[workload]\nlevel = 2\n")
        resolved = resolve_scenario(base, [overlay])
        assert resolved.scale.level == 2
        # Overlays diff against the bare file.
        assert resolved.base_document is not None

    def test_later_overlay_wins(self, tmp_path):
        base = write(tmp_path, "s.toml", MINIMAL)
        o1 = write(tmp_path, "o1.toml", "[workload]\nlevel = 2\n")
        o2 = write(tmp_path, "o2.toml", "[workload]\nlevel = 4\n")
        assert resolve_scenario(base, [o1, o2]).scale.level == 4
        assert resolve_scenario(base, [o2, o1]).scale.level == 2

    def test_overlay_may_not_extend(self, tmp_path):
        base = write(tmp_path, "s.toml", MINIMAL)
        overlay = write(tmp_path, "o.toml",
                        "[scenario]\nextends = 's.toml'\n")
        with pytest.raises(ConfigurationError, match="extends"):
            resolve_scenario(base, [overlay])

    def test_delete_sentinel_in_overlay(self, tmp_path):
        base = write(tmp_path, "s.toml",
                     MINIMAL + "[energy]\ntechnology = 'paper'\n")
        overlay = write(tmp_path, "o.toml",
                        f"[energy]\ntechnology = '{DELETE}'\n")
        resolved = resolve_scenario(base, [overlay])
        assert resolved.energy is None
        assert "technology" not in resolved.document.get("energy", {})

    def test_sha_ignores_file_layout(self, tmp_path):
        """Inlined vs extends-composed documents hash identically."""
        inline = write(tmp_path, "inline.toml", """
[scenario]
name = "s"
[workload]
level = 4
""")
        write(tmp_path, "base.toml", "[scenario]\nname = 'b'\n")
        composed = write(tmp_path, "composed.toml", """
[scenario]
name = "s"
extends = "base.toml"
[workload]
level = 4
""")
        a = resolve_scenario(inline)
        b = resolve_scenario(composed)
        assert a.scenario_sha256 == b.scenario_sha256
        assert a.scenario_sha256 == scenario_sha256(a.document)

    def test_machine_override_builds_config(self, tmp_path):
        path = write(tmp_path, "s.toml", MINIMAL + """
[machine]
write_policy = "subblock"
[machine.write_buffer]
depth = 8
width_words = 1
overlap_cycles = 2
[machine.dcache]
size_words = 2048
line_words = 4
""")
        resolved = resolve_scenario(path)
        assert resolved.machine.write_policy is WritePolicy.SUBBLOCK
        assert resolved.machine.dcache.size_words == 2048


class TestSchemaErrors:
    def test_missing_scenario_table(self, tmp_path):
        path = write(tmp_path, "s.toml", "[machine]\nname = 'x'\n")
        with pytest.raises(ConfigurationError, match=r"\[scenario\]"):
            resolve_scenario(path)

    def test_unknown_top_level_key_did_you_mean(self, tmp_path):
        path = write(tmp_path, "s.toml", MINIMAL + "[machne]\nname = 'x'\n")
        with pytest.raises(ConfigurationError,
                           match=r"did you mean 'machine'"):
            resolve_scenario(path)

    def test_nested_cache_typo_has_dotted_path(self, tmp_path):
        path = write(tmp_path, "s.toml", MINIMAL + """
[machine.icache]
size_wordz = 4096
""")
        with pytest.raises(
                ConfigurationError,
                match=r"machine\.icache\.size_wordz.*"
                      r"did you mean 'size_words'"):
            resolve_scenario(path)

    def test_nested_write_buffer_typo_has_dotted_path(self, tmp_path):
        path = write(tmp_path, "s.toml", MINIMAL + """
[machine.write_buffer]
depht = 8
""")
        with pytest.raises(
                ConfigurationError,
                match=r"machine\.write_buffer\.depht.*did you mean 'depth'"):
            resolve_scenario(path)

    def test_bad_write_policy_did_you_mean(self, tmp_path):
        path = write(tmp_path, "s.toml",
                     MINIMAL + "[machine]\nwrite_policy = 'write-bak'\n")
        with pytest.raises(ConfigurationError,
                           match="did you mean 'write-back'"):
            resolve_scenario(path)

    def test_bad_engine(self, tmp_path):
        path = write(tmp_path, "s.toml",
                     MINIMAL + "[engine]\nname = 'refernce'\n")
        with pytest.raises(ConfigurationError,
                           match="did you mean 'reference'"):
            resolve_scenario(path)

    def test_bad_energy_technology(self, tmp_path):
        path = write(tmp_path, "s.toml",
                     MINIMAL + "[energy]\ntechnology = 'papr'\n")
        with pytest.raises(ConfigurationError, match="did you mean 'paper'"):
            resolve_scenario(path)

    def test_bad_workload_value(self, tmp_path):
        path = write(tmp_path, "s.toml",
                     MINIMAL + "[workload]\nlevel = 0\n")
        with pytest.raises(ConfigurationError, match="workload.level"):
            resolve_scenario(path)

    def test_bad_warmup_fraction(self, tmp_path):
        path = write(tmp_path, "s.toml",
                     MINIMAL + "[workload]\nwarmup_fraction = 1.5\n")
        with pytest.raises(ConfigurationError, match="warmup_fraction"):
            resolve_scenario(path)

    def test_bad_sweep_mode(self, tmp_path):
        path = write(tmp_path, "s.toml", MINIMAL + """
[sweep]
mode = "zap"
[sweep.axes]
a = [1]
""")
        with pytest.raises(ConfigurationError, match="did you mean 'zip'"):
            resolve_scenario(path)

    def test_zip_requires_equal_lengths(self, tmp_path):
        path = write(tmp_path, "s.toml", MINIMAL + """
[sweep]
mode = "zip"
[sweep.axes]
a = [1, 2]
b = [1]
""")
        with pytest.raises(ConfigurationError, match="zip"):
            resolve_scenario(path)

    def test_empty_axis_rejected(self, tmp_path):
        path = write(tmp_path, "s.toml", MINIMAL + "[sweep.axes]\na = []\n")
        with pytest.raises(ConfigurationError, match="a"):
            resolve_scenario(path)


class TestBindParams:
    def _resolved(self, tmp_path, axes_toml):
        path = write(tmp_path, "s.toml", MINIMAL + axes_toml)
        return resolve_scenario(path)

    def test_exact_axes_bind(self, tmp_path):
        import repro.experiments.runner  # noqa: F401  (fills the registry)

        resolved = self._resolved(tmp_path,
                                  "[sweep.axes]\nlevels = [1, 2]\n")
        params = bind_params(resolved, "fig2")
        assert params.axis("levels") == (1, 2)
        assert params.scenario_sha256 == resolved.scenario_sha256

    def test_missing_axis_is_error(self, tmp_path):
        import repro.experiments.runner  # noqa: F401

        resolved = self._resolved(tmp_path, "")
        with pytest.raises(ConfigurationError, match="missing sweep axes"):
            bind_params(resolved, "fig2")

    def test_unknown_axis_did_you_mean(self, tmp_path):
        import repro.experiments.runner  # noqa: F401

        resolved = self._resolved(tmp_path,
                                  "[sweep.axes]\nlevls = [1, 2]\n")
        with pytest.raises(ConfigurationError,
                           match="did you mean 'levels'"):
            bind_params(resolved, "fig2")

    def test_params_axis_typo_did_you_mean(self, tmp_path):
        import repro.experiments.runner  # noqa: F401

        resolved = self._resolved(tmp_path,
                                  "[sweep.axes]\nlevels = [1, 2]\n")
        params = bind_params(resolved, "fig2")
        with pytest.raises(ConfigurationError, match="did you mean"):
            params.axis("levles")


class TestExpandGrid:
    def test_product_order(self):
        points = expand_grid({"a": (1, 2), "b": ("x", "y")})
        assert points == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                          {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]

    def test_zip_mode(self):
        points = expand_grid({"a": (1, 2), "b": ("x", "y")}, mode="zip")
        assert points == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    def test_empty_axes(self):
        assert expand_grid({}) == []
