"""The one JSON form shared by every report the CLI prints (qkdlab._json)."""

import functools
import json

import numpy as np

from qkdlab import attack_lab, cli, composition_harness, keystream, quantum_core, security_metrics
from qkdlab._json import JsonRecord
from qkdlab.attack_lab import SecrecyGapReport, secrecy_reports
from qkdlab.composition_harness import (
    AdvantageEstimate,
    AuctionOutcome,
    AuctionSweep,
    CompositionReport,
    DistinguisherRow,
    attack_otp_advantage,
    biased_key_source,
    otp_application,
    otp_majority_zeros_distinguisher,
    rsa_auction_sweep,
    verify_composition_bound,
)
from qkdlab.keystream import StreamBudget, StreamParams
from qkdlab.security_metrics import SecurityReport


@functools.cache
def _records() -> tuple[JsonRecord, ...]:
    report, gap = secrecy_reports(2, seed=1, families=("per_qubit",))
    params = StreamParams(n0=60_000, c=60_000.0, ell=256, ell0=12_000)
    composition = verify_composition_bound(
        biased_key_source(1, p_zero=0.6), otp_application("1"),
        [otp_majority_zeros_distinguisher("1")], mode="exact",
    )
    estimate = attack_otp_advantage(2, "111", mode="exact")
    sweep = rsa_auction_sweep(3, rng=np.random.default_rng(2))
    return (
        report, gap, params, keystream.total_eps(params, 5), estimate,
        composition.rows[0], composition, sweep.outcomes[0], sweep,
    )


def test_every_report_class_uses_the_mixin():
    classes = {type(r) for r in _records()}
    assert classes == {
        SecurityReport, SecrecyGapReport, StreamParams, StreamBudget, AdvantageEstimate,
        DistinguisherRow, CompositionReport, AuctionOutcome, AuctionSweep,
    }
    modules = (quantum_core, security_metrics, attack_lab, keystream, composition_harness, cli)
    defined = {
        cls for module in modules for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
    }
    assert classes <= defined
    # JsonRecord (in qkdlab._json) is the one class that writes JSON by hand
    for cls in defined:
        assert "to_json_dict" not in vars(cls), cls.__name__


def test_json_form_is_plain_json():
    for record in _records():
        data = record.to_json_dict()
        assert json.loads(json.dumps(data)) == data


def test_tag_rule():
    for record in _records():
        data = record.to_json_dict()
        if type(record).JSON_TYPE is None:
            assert "type" not in data
        else:
            assert data["type"] == type(record).JSON_TYPE
        # an optional field (default None) is left out while it is None
        optional = {name for name, f in record._fields.items() if f.default is None}
        skipped = {f for f in optional if getattr(record, f) is None}
        assert set(data) - {"type"} == {f for f in vars(record) if not f.startswith("_")} - skipped
    assert AdvantageEstimate.JSON_TYPE is None and DistinguisherRow.JSON_TYPE is None


def test_nested_values_become_plain_json():
    report, _, _, _, _, _, composition, _, sweep = _records()
    data = report.to_json_dict()
    assert type(data["provenance"]) is dict
    assert type(composition.to_json_dict()["rows"][0]) is dict
    outcomes = sweep.to_json_dict()["outcomes"]
    assert type(outcomes) is list and outcomes[0]["type"] == "auction_outcome"


def test_all_within_bound_is_derived_from_the_rows():
    composition = _records()[6]
    failing = DistinguisherRow(**{**vars(composition.rows[0]), "within_bound": False})
    args = [getattr(composition, name) for name in CompositionReport._init_names if name != "rows"]
    mixed = CompositionReport(*args, (composition.rows[0], failing))
    assert composition.all_within_bound and not mixed.all_within_bound
    data = mixed.to_json_dict()
    assert data["all_within_bound"] is False
    assert [row["within_bound"] for row in data["rows"]] == [True, False]
