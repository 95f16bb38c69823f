import random
from pathlib import Path

import numpy as np
import pytest

from dyncomplab import constructions as cx
from dyncomplab import oracle as oc
from dyncomplab import programs as pg
from dyncomplab.driver import ProgramRun
from dyncomplab.interpreter import (format_program, init_state, parse_program,
                                    step, validate)
from dyncomplab.structures import Change, DynLabError
from helpers import drive_checked, rels_for


def _check_program(name, n, length, rng, audit_every):
    """Run a catalog program over a seeded stream, checking every answer
    against the entry's oracle."""
    entry = pg.catalog_entry(name)
    prog = entry.build()
    changes = cx.random_changes(n, rels_for(prog), length, rng)
    drive_checked(ProgramRun(prog, n), n, changes, entry.oracle, audit_every)


@pytest.mark.parametrize("entry", pg.catalog(), ids=lambda e: e.name)
def test_catalog_programs_validate(entry):
    prog = entry.build()
    assert prog.name == entry.name
    assert validate(prog) == []
    if entry.class_claim == "DynProp":
        assert prog.class_claim == "DynProp"


@pytest.mark.parametrize("entry", pg.catalog(), ids=lambda e: e.name)
def test_catalog_arity_claims(entry):
    from dyncomplab.interpreter import max_aux_arity
    assert max_aux_arity(entry.build()) == entry.arity_claim


def test_prop_program_needs_k_at_least_3():
    with pytest.raises(DynLabError):
        pg.parity_exists_deg_k_prop_program(2)


def test_parity_program_run():
    _check_program("parity", 6, 80, random.Random(0), audit_every=10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_size_k_program_run(k):
    _check_program(f"size_{k}", 5, 90, random.Random(k), audit_every=9)


def test_size_k_skips_non_effective():
    prog = pg.size_k_program(1)
    assert prog.requires_effective
    st = init_state(prog, 3)
    st = step(st, Change("ins", "U", (1,)))
    assert step(st, Change("ins", "U", (1,)), mode="skip") is st


@pytest.mark.parametrize("k", [1, 2])
def test_degree_relation_program(k):
    _check_program(f"degree_rel_{k}", 5, 70, random.Random(7 + k),
                   audit_every=10)


def test_parity_degree_div3_program():
    _check_program("parity_degree_div3", 5, 110, random.Random(11),
                   audit_every=11)


@pytest.mark.parametrize("k,n", [(3, 5), (4, 6)])
def test_parity_exists_prop_program(k, n):
    _check_program(f"parity_exists_prop_{k}", n, 60, random.Random(k * 13),
                   audit_every=15)


def test_self_loops_in_degree_programs():
    prog = pg.parity_degree_div3_program()
    st = init_state(prog, 4)
    # a self-loop contributes 2 to total degree, so one self-loop plus one
    # extra in-edge gives total degree 3
    st = step(st, Change("ins", "E", (1, 1)))
    assert st.answer() is False
    st = step(st, Change("ins", "E", (0, 1)))
    assert st.answer() is True
    assert oc.eval_query(oc.QueryId("parity_degree_div3"), st.input) is True


def test_committed_program_files_match_catalog():
    progdir = Path(__file__).resolve().parent.parent / "programs"
    for entry in pg.catalog():
        built = entry.build()
        text = (progdir / f"{entry.name}.dyp").read_text()
        assert text == format_program(built), entry.name
        parsed = parse_program(text, name=entry.name)
        assert parsed.rules == built.rules, entry.name
        assert parsed.init_aux == built.init_aux
        assert parsed.answer == built.answer


def test_write_program_files(tmp_path):
    written = pg.write_program_files(tmp_path)
    names = {p.stem for p in tmp_path.glob("*.dyp")}
    assert names == {e.name for e in pg.catalog()}
    for path in tmp_path.glob("*.dyp"):
        prog = parse_program(path.read_text(), name=path.stem)
        assert format_program(prog) == path.read_text()


@pytest.mark.parametrize("entry", pg.catalog(), ids=lambda e: e.name)
def test_every_single_cell_corruption_fails_the_audit(entry):
    prog = entry.build()
    n = 4 if entry.name == "parity_exists_prop_4" else 5
    st = init_state(prog, n)
    for c in cx.random_changes(n, rels_for(prog), 12,
                               random.Random(f"mutate:{entry.name}")):
        st = step(st, c)
    assert not pg.audit_program_state(st)
    for rel, arr in st.aux_arrays.items():
        for cell in np.ndindex(arr.shape):
            arr[cell] ^= True
            assert pg.audit_program_state(st), (rel, cell)
            arr[cell] ^= True


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("entry", pg.catalog(), ids=lambda e: e.name)
def test_initial_state_on_a_small_domain_audits_clean(entry, n):
    assert pg.audit_program_state(init_state(entry.build(), n)) == []
