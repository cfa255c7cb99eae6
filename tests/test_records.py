"""The record base (qkdlab._json.Record): every report and value class of the lab is one of its
subclasses, built from shared methods; every record is frozen and keeps the fields, defaults,
checks, equality, hash and repr it has always had."""

import re
from types import MappingProxyType

import numpy as np
import pytest

from qkdlab import attack_lab, composition_harness, keystream, quantum_core, security_metrics
from qkdlab._json import JsonRecord, Record, json_keys
from qkdlab.composition_harness import CompositionReport, DistinguisherRow, ProtocolPair
from qkdlab.keystream import MockKeySource, RoundRecord, StreamParams
from qkdlab.quantum_core import CqState
from qkdlab.security_metrics import SecurityReport, Strategy

# class: (equality, fields in order); "value" compares and hashes by the fields,
# "identity" keeps object identity
RECORDS = {
    "AttackState": ("identity", ("n", "cq")),
    "AttackTranscript": ("value", ("n", "message", "key", "pad", "ciphertext", "recovered_bases",
                                         "measured_pad", "recovered_bit", "success")),
    "SecrecyGapReport": ("value", ("n", "eps_secret_lower", "eps_secret_upper", "iacc_lower_bits",
                                         "iacc_family", "iacc_best_strategy", "ben_or_required_iacc",
                                         "seed", "iacc_upper_bits")),
    "SampleTable": ("identity", ("codes", "weights", "widths")),
    "ProtocolPair": ("value", ("name", "output_len", "declared_eps", "real_run", "ideal_run", "build_exact")),
    "KeyApplication": ("value", ("name", "key_len", "declared_eps", "real_run", "ideal_run",
                                       "real_dist_given_keys", "ideal_dist_given_keys")),
    "Distinguisher": ("value", ("name", "decide")),
    "AdvantageEstimate": ("value", ("advantage", "half_width", "accept_real", "accept_ideal", "mode", "trials")),
    "DistinguisherRow": ("value", ("name", "advantage_total", "half_width", "advantage_source_step",
                                         "advantage_app_step", "telescope_residual", "within_bound")),
    "CompositionReport": ("value", ("source", "application", "eps_source", "eps_app", "eps_bound", "mode",
                                          "trials", "rows", "all_within_bound")),
    "AuctionOutcome": ("value", ("modulus_bits", "n", "e", "alice_bid", "bob_bid", "forgery_doubled", "winner")),
    "_Auctions": ("value", ("n", "e", "alice_bid", "bob_bid", "forgery_doubled", "winner")),
    "AuctionSweep": ("value", ("outcomes", "bob_win_rate", "all_forgeries_doubled")),
    "StreamParams": ("value", ("gamma", "rate_rho", "nu", "n0", "c", "ell", "ell0", "eps0")),
    "RoundRecord": ("value", ("i", "n_i", "ell_i", "eps_i", "term_signal", "term_auth", "clamped")),
    "StreamBudget": ("value", ("horizon", "real_valued", "partial_sum", "tail_bound", "eps_total", "divergent")),
    "MockKeySource": ("value", ("abort_prob",)),
    "RoundLedger": ("value", ("i", "n_i", "ell_i", "attempts", "consumed_after", "stored_after",
                                    "emitted_after")),
    "StreamLog": ("value", ("params", "attempts", "packed_bits", "stored_final", "consumed_final")),
    "DensityOperator": ("identity", ("matrix",)),
    "CqState": ("identity", ("key_len", "labels", "probs", "matrices")),
    "Povm": ("identity", ("labels", "basis", "_stack")),
    "Strategy": ("identity", ("name", "labels", "effects")),
    "IdealForm": ("identity", ("p_perp", "rho_prime", "rho_dblprime")),
    "IaccSearchResult": ("value", ("bits", "family", "best_strategy", "evaluations")),
    "SecurityReport": ("value", ("key_len", "eps_correct", "eps_robust", "eps_secret_lower",
                                       "eps_secret_upper", "iacc_lower_bits", "eps_total", "provenance")),
}

# the keys of each JSON record, in sort_keys order, as the CLI's documents carry them
JSON_KEYS = {
    "SecrecyGapReport": ("ben_or_required_iacc", "eps_secret_lower", "eps_secret_upper", "iacc_best_strategy",
                         "iacc_family", "iacc_lower_bits", "iacc_upper_bits", "n", "seed", "type"),
    "AdvantageEstimate": ("accept_ideal", "accept_real", "advantage", "half_width", "mode", "trials"),
    "DistinguisherRow": ("advantage_app_step", "advantage_source_step", "advantage_total", "half_width", "name",
                         "telescope_residual", "within_bound"),
    "CompositionReport": ("all_within_bound", "application", "eps_app", "eps_bound", "eps_source", "mode", "rows",
                          "source", "trials", "type"),
    "AuctionOutcome": ("alice_bid", "bob_bid", "e", "forgery_doubled", "modulus_bits", "n", "type", "winner"),
    "AuctionSweep": ("all_forgeries_doubled", "bob_win_rate", "outcomes", "type"),
    "StreamParams": ("c", "ell", "ell0", "eps0", "gamma", "n0", "nu", "rate_rho", "type"),
    "StreamBudget": ("divergent", "eps_total", "horizon", "partial_sum", "real_valued", "tail_bound", "type"),
    "SecurityReport": ("eps_correct", "eps_robust", "eps_secret_lower", "eps_secret_upper", "eps_total",
                       "iacc_lower_bits", "key_len", "provenance", "type"),
}


def _classes(base: type) -> dict[str, type]:
    modules = (attack_lab, composition_harness, keystream, quantum_core, security_metrics)
    return {
        name: cls for module in modules for name, cls in vars(module).items()
        if isinstance(cls, type) and issubclass(cls, base) and cls.__module__ == module.__name__
    }


def _blank(cls: type, values: dict) -> Record:
    # a record with the given field values, past its checks
    record = object.__new__(cls)
    vars(record).update(values)
    return record


def _cq() -> CqState:
    return CqState.from_stack(1, ["0", "1"], [0.5, 0.5], np.stack([np.eye(2) / 2] * 2))


def _report(**changes) -> SecurityReport:
    fields = dict(key_len=3, eps_correct=0.01, eps_robust=0.02, eps_secret_lower=0.1,
                  eps_secret_upper=0.2, iacc_lower_bits=0.5, eps_total=0.23)
    return SecurityReport(**{**fields, **changes})


def test_every_record_class_is_frozen_and_keeps_its_fields_and_equality():
    classes = _classes(Record)
    assert sorted(classes) == sorted(RECORDS)
    for name, cls in classes.items():
        equality, fields = RECORDS[name]
        assert tuple(cls._fields) == fields, name
        # the shared __init__, save the two classes that build from their own arguments
        assert ("__init__" in vars(cls)) == (name in ("CqState", "Povm")), name
        values = {field: i for i, field in enumerate(fields)}
        a, b = _blank(cls, values), _blank(cls, values)
        if equality == "identity":
            assert a != b and a == a and hash(a) == object.__hash__(a), name
        else:
            assert a == b and a != _blank(cls, {**values, fields[0]: -1}), name
            assert a != (*values.values(),), name
            assert hash(a) == hash(b) == hash(tuple(values.values())), name
        with pytest.raises(AttributeError, match=f"cannot assign to field '{fields[0]}'"):
            setattr(a, fields[0], -1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{fields[0]}'"):
            delattr(a, fields[0])
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            a.extra = 1
        assert vars(a) == values, name


def test_json_keys_of_every_json_record():
    classes = _classes(JsonRecord)
    assert sorted(classes) == sorted(JSON_KEYS)
    for name, cls in classes.items():
        assert json_keys(cls) == JSON_KEYS[name], name


def test_construction_by_position_keyword_and_default():
    row = (3, 2.0e6, 512.0, 1e-12, 4e-13, 6e-13, False)
    by_position = RoundRecord(*row)
    by_keyword = RoundRecord(**dict(zip(RoundRecord._fields, row)))
    mixed = RoundRecord(*row[:3], **dict(zip(RoundRecord._init_names[3:], row[3:])))
    assert by_position == by_keyword == mixed
    assert vars(by_position) == dict(zip(RoundRecord._fields, row))
    defaults = StreamParams()
    assert (defaults.gamma, defaults.n0, defaults.c, defaults.ell, defaults.ell0, defaults.eps0) == (
        keystream.GAMMA_DEFAULT, 1_000_000, 1_000_000.0, 256, 40_000, 0.0)
    assert StreamParams(ell=128) == StreamParams(*[128 if f == "ell" else getattr(defaults, f) for f in defaults._fields])
    assert StreamParams.ell == 256  # a plain default stays a class attribute
    assert MockKeySource().abort_prob == 0.0 and MockKeySource(0.25) == MockKeySource(abort_prob=0.25)


def test_provenance_is_a_read_only_copy():
    assert _report().provenance == {} and type(_report().provenance) is MappingProxyType
    given = {"note": "x"}
    report = _report(provenance=given)
    given["note"] = "y"
    assert report.provenance == {"note": "x"} and type(report.provenance) is MappingProxyType


@pytest.mark.parametrize("call, message", [
    (lambda: RoundRecord(1, 2.0, 3.0), "RoundRecord() missing required argument 'eps_i'"),
    (lambda: RoundRecord(1, 2.0, 3.0, 0.0, 0.0, 0.0, False, 9), "RoundRecord() takes 7 positional arguments but 8 were given"),
    (lambda: StreamParams(0.001, gamma=0.001), "StreamParams() got multiple values for argument 'gamma'"),
    (lambda: StreamParams(rounds=3), "StreamParams() got an unexpected keyword argument 'rounds'"),
    (lambda: CompositionReport("s", "a", 0.1, 0.1, 0.2, "exact", 0, (), all_within_bound=True),
     "CompositionReport() got an unexpected keyword argument 'all_within_bound'"),
])
def test_argument_errors(call, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        call()


def test_a_non_init_field_is_set_by_post_init():
    row = DistinguisherRow("d", 0.1, 0.0, 0.05, 0.05, 0.0, True)
    args = ("src", "app", 0.1, 0.1, 0.2, "exact", 0)
    report = CompositionReport(*args, (row,))
    assert report.all_within_bound is True
    assert "all_within_bound" not in CompositionReport._init_names
    failing = CompositionReport(*args, (row, DistinguisherRow(**{**vars(row), "within_bound": False})))
    assert failing.all_within_bound is False and report.all_within_bound is True
    assert repr(report).endswith("all_within_bound=True)")


@pytest.mark.parametrize("call, error, message", [
    (lambda: StreamParams(eps0=1.5), ValueError, "eps0 must lie in [0, 1]"),
    (lambda: StreamParams(n0=0), ValueError, "n0 must be a positive integer at most 2**53"),
    (lambda: MockKeySource(1.5), ValueError, "abort_prob must lie in [0, 1]"),
    (lambda: MockKeySource(abort_prob=-0.1), ValueError, "abort_prob must lie in [0, 1]"),
    (lambda: ProtocolPair("p", 1, 2.0, None, None), ValueError, "declared_eps must lie in [0, 1]"),
    (lambda: _report(eps_secret_lower=0.5), ValueError, "secrecy lower bound exceeds upper bound"),
    (lambda: _report(iacc_lower_bits=3.5), ValueError, "iacc_lower_bits outside [0, key_len]"),
    (lambda: attack_lab.AttackState(2, _cq()), ValueError, "cq-state shape does not match n"),
])
def test_post_init_refusals_keep_their_texts(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_repr_names_the_fields_and_leaves_out_the_excluded_ones():
    assert repr(MockKeySource(0.25)) == "MockKeySource(abort_prob=0.25)"
    assert repr(RoundRecord(1, 2.0, 3.0, 0.5, 0.25, 0.25, False)) == (
        "RoundRecord(i=1, n_i=2.0, ell_i=3.0, eps_i=0.5, term_signal=0.25, term_auth=0.25, clamped=False)")
    assert repr(_cq()) == "CqState(key_len=1, labels=('0', '1'))"
    strategy = Strategy("s", ("0", "1"), np.stack([np.eye(2)] * 2))
    assert repr(strategy) == "Strategy(name='s', labels=('0', '1'))"
    assert repr(_blank(composition_harness._Auctions, dict.fromkeys(RECORDS["_Auctions"][1], 1))) == (
        "_Auctions(n=1, e=1, alice_bid=1, bob_bid=1, forgery_doubled=1, winner=1)")
