"""Importing kglp keeps freed step memory in the process heap (glibc only)."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kglp
from kglp import _heap

# a 40 MB float64 array allocated and freed in a loop, as a training step does
# with its activations; prints the minor page faults per iteration
ALLOC_LOOP = """
import resource, sys
import numpy as np
if sys.argv[1] == "kglp":
    import kglp
def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
a = np.ones(5_000_000); del a
start = minor_faults()
for _ in range(20):
    a = np.ones(5_000_000); del a
print((minor_faults() - start) / 20)
"""


def faults_per_iteration(imports: str) -> float:
    env = dict(os.environ)
    src = str(Path(kglp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", ALLOC_LOOP, imports], env=env,
                         capture_output=True, text=True, check=True).stdout
    return float(out)


@pytest.mark.skipif(_heap.glibc_mallopt() is None,
                    reason="the heap setting applies to glibc only")
def test_import_keeps_freed_arrays_mapped():
    plain = faults_per_iteration("numpy")
    with_kglp = faults_per_iteration("kglp")
    assert with_kglp * 10 < plain, (with_kglp, plain)


class FakeMallopt:
    """Records its calls; returns 0 for the parameters in ``refuses``."""

    def __init__(self, *refuses):
        self.refuses = refuses
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 0 if param in self.refuses else 1


def test_sets_both_thresholds():
    mallopt = FakeMallopt()
    assert _heap.keep_freed_memory(mallopt) is True
    assert mallopt.calls == [(_heap.M_MMAP_THRESHOLD, _heap.MMAP_THRESHOLD),
                             (_heap.M_TRIM_THRESHOLD, _heap.TRIM_THRESHOLD)]
    # mallopt takes a C int
    assert all(0 < value < 2 ** 31 for _, value in mallopt.calls)


def test_refused_mmap_threshold_sets_no_trim_threshold(capsys, recwarn):
    mallopt = FakeMallopt(_heap.M_MMAP_THRESHOLD)
    assert _heap.keep_freed_memory(mallopt) is False
    assert mallopt.calls == [(_heap.M_MMAP_THRESHOLD, _heap.MMAP_THRESHOLD)]
    assert capsys.readouterr() == ("", "") and not recwarn


def test_refused_trim_threshold_is_silent(capsys, recwarn):
    mallopt = FakeMallopt(_heap.M_TRIM_THRESHOLD)
    assert _heap.keep_freed_memory(mallopt) is False
    assert len(mallopt.calls) == 2
    assert capsys.readouterr() == ("", "") and not recwarn


def test_missing_mallopt_is_silent(capsys, recwarn):
    assert _heap.keep_freed_memory(None) is False
    assert capsys.readouterr() == ("", "") and not recwarn


def _raise(exc):
    def confstr(name):
        raise exc
    return confstr


@pytest.mark.parametrize("confstr", [lambda name: None, _raise(ValueError("unknown name")),
                                     _raise(OSError(22, "Invalid argument"))],
                         ids=["empty", "unknown-name", "refused"])
def test_no_mallopt_off_glibc(monkeypatch, confstr):
    monkeypatch.setattr(os, "confstr", confstr)
    assert _heap.glibc_mallopt() is None


def test_no_mallopt_without_confstr(monkeypatch):
    monkeypatch.delattr(os, "confstr")
    assert _heap.glibc_mallopt() is None


def test_no_mallopt_in_a_libc_without_it(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert _heap.glibc_mallopt() is None
