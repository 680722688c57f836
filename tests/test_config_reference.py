"""`validate_config` against the validator it replaced (helpers_config).

A generated corpus sets every key of every section, and every parameter
of every law kind, to values of each JSON type and to the edges of the
number rule; it adds a dt x t_end grid and numeric, unknown and
"estimate" constants against tiny law bounds.  The two validators must
report the same messages in the same order and merge the same config.
There are two intended differences: the old validator took a JSON null
for four keys as absent, and the new one checks it like any other value;
the old one took a JSON true for `physics.buoyancy_sign_flag` as 1, and
the new one rejects a bool there as every other numeric field does.
"""

import helpers_config as ref
from bgs import cli

# null, a bool, a string, an empty list and object, a 2-list, integers
# beyond float range, the largest float, negative zero, a non-integer, 0
VALUES = [None, True, "x", [], {}, [1.0, 2.0], 10 ** 400, -10 ** 400,
          1e308, -0.0, 2.5, 0]

LAWS = {
    "constant": {"kind": "constant", "value": 2.0},
    "clamped_affine": {"kind": "clamped_affine", "intercept": 1.0,
                       "slope": 0.5, "lo": 0.5, "hi": 2.0},
    "tanh_blend": {"kind": "tanh_blend", "lo": 0.5, "hi": 2.0},
}

# the four keys where null used to pass as absent, with the message now given
NULL_FIXES = {
    ("mesh", "gamma1_sides"):
        "mesh.gamma1_sides: must be a non-empty string list",
    ("physics", "gravity"):
        'physics.gravity: must be "constant_down" or a finite 2-vector',
    ("physics", "buoyancy_sign_flag"):
        "physics.buoyancy_sign_flag: must be 1 or -1, got None",
    ("data", "problem"):
        "data.problem: must be one of ('zero', 'mms', 'cavity_convection'), "
        "got None",
}

# the bool the old validator merged as a sign, with the message now given
BOOL_FIX = ({"physics": {"buoyancy_sign_flag": True}},
            "physics.buoyancy_sign_flag: must be 1 or -1, got True")


def _corpus():
    defaults = ref._default_config()
    yield from VALUES
    for section, keys in defaults.items():
        for val in VALUES:
            yield {section: val}
            for key in keys:
                yield {section: {key: val}}
            yield {section: {"bogus": val}}
    for val in VALUES:
        for key in list(defaults["solver"]["constants"]) + ["bogus"]:
            yield {"solver": {"constants": {key: val}}}
    for name in ("viscosity", "conductivity"):
        for law in LAWS.values():
            yield {"coefficients": {name: law}}
            yield {"coefficients": {name: {**law, "lo": 3.0}}}
            for key in law:
                yield {"coefficients": {name: {k: v for k, v in law.items()
                                               if k != key}}}
                for val in VALUES:
                    yield {"coefficients": {name: {**law, key: val}}}
            for val in VALUES:
                yield {"coefficients": {name: {**law, "bogus": val}}}
    times = [1e-300, 1e-12, 0.03, 0.1, 0.3, 1.0, 1e6, 1e300, 10 ** 400, 0,
             -1.0, True, None, "x", float("nan"), float("inf")]
    for dt in times:
        for t_end in times:
            yield {"time": {"dt": dt, "t_end": t_end}}
    tiny = [{"kind": "constant", "value": 1e-200},
            {"kind": "tanh_blend", "lo": 1e-300, "hi": 1.0},
            {"kind": "clamped_affine", "intercept": 0.0, "slope": 1.0,
             "lo": 1e-150, "hi": 1e-150}]
    constants = ["estimate", {}, {"c1": 1e-300}, {"d": 1e300},
                 {"c1": 1e300, "c1_prime": 1e300, "d": 1e300},
                 {"c1": 1.0, "bogus": 1}, {"c1_prime": 1e-200, "d": 0.5}]
    for vis in tiny + [None]:
        for con in tiny + [None]:
            laws = {n: law for n, law in (("viscosity", vis),
                                          ("conductivity", con)) if law}
            for cst in constants:
                yield {"coefficients": laws, "solver": {"constants": cst}}


CORPUS = list(_corpus())


def _outcome(validate, raw):
    try:
        return "ok", validate(raw)
    except cli.ConfigError as exc:
        return "rejected", exc.messages


def _null_fix(raw):
    """The (section, key) of a corpus config that sets one of the four
    keys to null and nothing else, or None."""
    if isinstance(raw, dict) and len(raw) == 1:
        (section, values), = raw.items()
        if isinstance(values, dict) and len(values) == 1:
            (key, val), = values.items()
            if val is None and (section, key) in NULL_FIXES:
                return section, key
    return None


def test_corpus_is_large_and_covers_both_outcomes():
    outcomes = [_outcome(ref.validate_config, raw)[0] for raw in CORPUS]
    assert len(CORPUS) > 700
    assert 100 < outcomes.count("ok") < len(CORPUS) - 100


def test_validator_matches_the_reference_on_the_corpus():
    nulls, bools = [], []
    for raw in CORPUS:
        got = _outcome(cli.validate_config, raw)
        want = _outcome(ref.validate_config, raw)
        # True == 1, so the flag is compared by identity too
        if (raw == BOOL_FIX[0]
                and raw["physics"]["buoyancy_sign_flag"] is True):
            bools.append(raw)
            assert want[0] == "ok"
            assert want[1]["physics"]["buoyancy_sign_flag"] is True
            assert got == ("rejected", [BOOL_FIX[1]])
            continue
        if (fix := _null_fix(raw)) is not None:
            nulls.append(fix)
            assert want[0] == "ok"
            assert got == ("rejected", [NULL_FIXES[fix]]), raw
            continue
        assert got == want, raw
    assert sorted(nulls) == sorted(NULL_FIXES)
    assert bools == [BOOL_FIX[0]]


def test_sign_flag_one_as_a_float_still_passes():
    cfg = cli.validate_config({"physics": {"buoyancy_sign_flag": 1.0}})
    assert cfg["physics"]["buoyancy_sign_flag"] == 1.0

