"""Perfbench's traced run wraps program functions by name.

``perfbench/layers.py`` lists each layer as a ``"module:attribute"`` site
and resolves every one when a ``Tracer`` is built.  A refactor that
renames or moves a wrapped function would otherwise break only the
traced benchmark run; this test breaks instead.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_and_restores_every_layer_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = layers.Tracer()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _original, _wrapper in tracer._sites]
    assert len(originals) == len(layers.LAYERS)
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
