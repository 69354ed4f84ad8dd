"""Tests for the kernel backend registry and selection rules."""

import pytest

from repro.kernels import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    KernelBackend,
    NaiveBackend,
    PackedBackend,
    VectorBackend,
    available_backends,
    backend_choices_help,
    backend_descriptions,
    default_backend_name,
    get_backend,
    register_backend,
)
from repro.kernels.base import _DESCRIPTIONS, _INSTANCES, _REGISTRY
from tests.util import numpy_import_blocked


class TestRegistry:
    def test_all_builtin_backends_registered(self):
        assert available_backends() == ["naive", "packed", "vector"]

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("naive"), NaiveBackend)
        assert isinstance(get_backend("packed"), PackedBackend)
        assert isinstance(get_backend("vector"), VectorBackend)

    def test_instances_are_cached(self):
        assert get_backend("packed") is get_backend("packed")
        assert get_backend("vector") is get_backend("vector")

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="naive"):
            get_backend("vectorised-fpga")

    def test_backends_satisfy_protocol(self):
        for name in available_backends():
            assert isinstance(get_backend(name), KernelBackend)

    def test_register_backend_replaces_stale_instance(self):
        class Custom(NaiveBackend):
            name = "custom"

        try:
            register_backend("custom", Custom)
            first = get_backend("custom")
            register_backend("custom", Custom)
            assert get_backend("custom") is not first
        finally:
            _REGISTRY.pop("custom", None)
            _INSTANCES.pop("custom", None)
            _DESCRIPTIONS.pop("custom", None)


class TestDefaultSelection:
    def test_packed_is_the_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert default_backend_name() == "packed"
        assert get_backend().name == "packed"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "naive")
        assert default_backend_name() == "naive"
        assert get_backend().name == "naive"
        assert get_backend(None).name == "naive"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "naive")
        assert get_backend("packed").name == "packed"

    def test_env_selects_vector(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "vector")
        assert get_backend().name == "vector"


class TestHelpTextDrift:
    """The CLI ``--backend`` surface is generated from the registry —
    a registered backend can never be missing from the help string."""

    def test_every_registered_backend_is_in_the_help(self):
        help_text = backend_choices_help()
        for name, description in backend_descriptions().items():
            assert f"'{name}'" in help_text
            if description:
                assert description in help_text
        assert BACKEND_ENV in help_text
        assert f"'{DEFAULT_BACKEND}'" in help_text

    def test_cli_flag_choices_and_help_come_from_the_registry(self):
        from repro.cli import build_parser

        actions = self._backend_actions(build_parser())
        assert actions, "no subcommand exposes --backend?"
        for action in actions:
            assert list(action.choices) == available_backends()
            assert action.help == backend_choices_help()

    def test_newly_registered_backend_shows_up_everywhere(self):
        from repro.cli import build_parser

        class Custom(NaiveBackend):
            name = "zz-custom"

        try:
            register_backend("zz-custom", Custom, "a drift-test backend")
            assert "zz-custom" in available_backends()
            help_text = backend_choices_help()
            assert "'zz-custom' (a drift-test backend)" in help_text
            # A parser built after registration reflects it, choices & help.
            parser = build_parser()
            for action in self._backend_actions(parser):
                assert "zz-custom" in action.choices
                assert "a drift-test backend" in action.help
        finally:
            _REGISTRY.pop("zz-custom", None)
            _INSTANCES.pop("zz-custom", None)
            _DESCRIPTIONS.pop("zz-custom", None)

    @staticmethod
    def _backend_actions(parser):
        actions = []
        for action in parser._subparsers._group_actions[0].choices.values():
            for sub in action._actions:
                if "--backend" in getattr(sub, "option_strings", ()):
                    actions.append(sub)
        return actions


class TestVectorConstruction:
    def test_registry_instance_uses_numpy_when_available(self):
        backend = get_backend("vector")
        try:
            import numpy  # noqa: F401

            assert backend.uses_numpy
        except ImportError:
            assert not backend.uses_numpy

    def test_blocked_numpy_selects_the_python_path(self):
        with numpy_import_blocked():
            backend = VectorBackend()
        assert not backend.uses_numpy
