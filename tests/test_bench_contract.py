"""What the benchmark under bench/ relies on from the package.

The benchmark wraps layer calls by name (`bench/spans.py`) and reads a
few attributes of the stores it traces, so a rename or deletion here
would break `bench/run.py --trace 1` without failing any other test.
"""

import importlib.util
import pathlib

from choicedict import words
from choicedict.chainstore import ChainStore
from choicedict.colored import ColoredDict
from choicedict.uncolored import UncoloredDict

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_call_resolves():
    spans = load_spans()
    for owner, attr, name in spans.LAYER_CALLS:
        # the lookup `Tracer.install` makes
        if isinstance(owner, type):
            assert attr in owner.__dict__, name
            assert callable(owner.__dict__[attr]), name
        else:
            assert callable(getattr(owner, attr)), name


def test_tracer_sees_the_stores_it_reads():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        d = UncoloredDict(1 << 12, "strict", 64)
        d.insert(5)
    finally:
        tracer.uninstall()
    assert tracer.stores == [d.D1]
    assert len(tracer) > 0


def test_attributes_the_benchmark_reads():
    d = UncoloredDict(1 << 12, "strict", 64)
    cs = d.D1
    assert isinstance(cs, ChainStore)
    assert (cs.N, cs.w) == ((1 << 12) // (2 * d.b), 64)
    assert cs.read(1) == 0
    assert cs.cell_reads > 0 and isinstance(cs.cell_writes, int)
    assert isinstance(words.op_count(), int)
    assert ColoredDict.choice_color is ColoredDict.choice
