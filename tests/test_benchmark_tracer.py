"""The benchmark's span tracer must still find every layer it requires.

``perfbench/spantrace.py`` rebinds levellab functions by name and wraps
``Form.__pow__`` and ``Form.__mul__`` on the class.  A refactor that
renames one of them, or takes it off a workload's path, makes a traced
benchmark run fail with a missing layer; this test sees it first.  The
tracer is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path
from random import Random

import levellab
from levellab.store import record_from_classification

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


def load_spantrace():
    spec = importlib.util.spec_from_file_location("spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_layer_a_workload_requires(tmp_path):
    spantrace = load_spantrace()
    tracer = spantrace.Tracer()
    tracer.install()
    tracer.recording = True
    try:
        # the workloads call through the package, as here
        report = levellab.scan_ic(levellab.HVector((1, 3, 1)), 2, [2, 3], master_seed=7)
        store = str(tmp_path / "store.jsonl")
        for result in report.classifications:
            levellab.store_append(record_from_classification(result), store)
        for record in levellab.store_load(store):
            levellab.store_verify(record)
        levellab.h_vector(levellab.compressed_generic_module(4, 3, 2, Random(0)))
    finally:
        tracer.recording = False
        tracer.uninstall()
    required = set().union(*spantrace.EXERCISED.values())
    recorded = {span[spantrace.NAME] for span in tracer.spans}
    assert sorted(required - recorded) == []
    # uninstall put the class back for the tests that follow
    assert levellab.Form.__mul__.__module__ == "levellab.forms"
