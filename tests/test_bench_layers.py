"""Every name ``perfbench/layers.py`` patches for a traced benchmark run is
still defined on its owner.

The traced run wraps each attribute through ``vars(owner)[attr]``, so a
program change that removes or moves one breaks ``perfbench/run.py --trace
1``.  The module is only loaded here; nothing is patched."""
import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
_SPEC = importlib.util.spec_from_file_location("bench_layers", _PATH)
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


def test_every_patched_name_is_defined_on_its_owner():
    patched = [(owner, attr) for owner, attr, *_ in layers.SPANS + layers.COUNTS]
    assert len(patched) == len(layers.SPANS) + len(layers.COUNTS) > 0
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in patched if attr not in vars(owner)]
    assert not missing, f"perfbench/layers.py patches names that are gone: {missing}"
