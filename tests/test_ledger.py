"""bench/ledger.py records the machine at numpy's declared floor too."""

import importlib.util
import pathlib

import numpy as np

LEDGER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "ledger.py"


def _ledger():
    spec = importlib.util.spec_from_file_location("ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_machine_without_show_configs_mode_records_an_unknown_blas(monkeypatch):
    # numpy before the dict form of its build report: show_config() only prints
    def show_config():
        return None

    monkeypatch.setattr(np, "show_config", show_config)
    record = _ledger().machine()
    assert record["blas"] == "unknown"
    assert record["numpy"] == np.__version__
