"""The benchmark's tracer (bench/tracing.py) patches catbound by name.

bench/ is not a package, so the module is loaded from its file.  Every
function it wraps must still exist under the name it uses.
"""

import importlib
import importlib.util
from pathlib import Path

from catbound import dsl

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    for name in tracing.MODULES:
        importlib.import_module(name)
    for group, targets in tracing.GROUPS.items():
        for modname, qual in targets:
            owner = importlib.import_module(f"catbound.{modname}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                # install() patches the class attribute itself
                assert attr in vars(getattr(owner, cls_name)), (group, qual)
            else:
                assert callable(getattr(owner, qual, None)), (group, qual)


def test_installed_tracer_sees_setup_checks(fixture_texts):
    dsl.load_prelude()      # the standard prelude is then built once per process
    tracing = load_tracing()

    def traced_load():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, diags = dsl.load_text(fixture_texts["double_max"], dsl.load_prelude())
        finally:
            tracer.uninstall()
        assert not diags
        return tracer

    tracer = traced_load()
    assert tracer.calls["apps.build_setup"] == 1
    assert tracer.calls["dsl.build_universe"] == 1      # the file alone
    assert tracer.tokens > 0        # read off what dsl.tokenize returns
    # a kept text is neither parsed, built nor checked again
    tracer = traced_load()
    assert tracer.calls["dsl.load_text"] == 2       # the prelude's and the file's
    assert tracer.calls["apps.build_setup"] == tracer.calls["dsl.build_universe"] == 0
    assert tracer.calls["model.validate"] == tracer.tokens == 0
