import dataclasses

import catamp
from catamp import amplify, analytic, channel, check, cli, fock

#: names the library no longer ships: test oracles and helpers live in tests/oracles.py
REMOVED = ("qfi_spectral", "DensityMatrix", "scs_norm_factor_amplified", "hes_amplified",
           "parse_csv", "TwoModeFock", "two_mode_product", "bs_apply")


def test_public_names_resolve_and_star_import_works():
    assert len(set(catamp.__all__)) == len(catamp.__all__)
    namespace = {}
    exec("from catamp import *", namespace)
    for name in catamp.__all__:
        assert namespace[name] is getattr(catamp, name)


def test_removed_names_are_gone():
    assert not set(REMOVED) & set(catamp.__all__)
    for module in (catamp, amplify, analytic, channel, cli, fock):
        assert not [name for name in REMOVED if hasattr(module, name)], module.__name__
    assert [f.name for f in dataclasses.fields(fock.FockVector)] == ["amps", "leaked"]


def test_the_check_module_is_the_one_home_of_the_fock_oracles():
    # cli keeps only the command line; catamp.check exports nothing at the top level
    assert not [n for n in vars(cli) if n.startswith(("brute_", "_check_"))]
    assert len(catamp.__all__) == 32
    defined = {n for n, v in vars(check).items() if getattr(v, "__module__", "") == check.__name__}
    assert {"fidelity", "slope", "gain", "qfi", "Pair", "check_suite"} <= defined
    assert not {"check", "CHECKS", *defined} & set(catamp.__all__)
