"""Run configs, experiment drivers, report emission, CLI surface."""

import csv
import functools
import gc
import importlib
import io
import json
import math
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from sif_lab import SifLabError, extraction, harness
from sif_lab.cli import main
from sif_lab.extraction import (IncompatibleFlux, ProblemData, _mesh_id,
                                extract_sifs_penalized, extract_sifs_stokes)
from sif_lab.fem import P2Space, dirichlet_values, load_vector
from sif_lab.geometry import (BoundaryData, build_polygon, generate_lshape_mesh,
                              lshape_polygon)
from sif_lab.modes import CornerFrame, make_mode
from sif_lab.spectral import MaterialParams
from sif_lab.harness import (SCHEMA, ConfigError, SweepRecord,
                             build_problem, emit, load_config,
                             run_eps_sweep, run_manufactured)

from test_fem import FACTORS_PER_SPACE, count_factorizations

SWEEP_COLUMNS = [f.name for f in fields(SweepRecord)]

BASE = """
[domain]
kind = lshape
size = 1.0

[mesh]
h = 0.25
levels = 4

[material]
mu = 1.0
"""


# -- config loading ------------------------------------------------------------

def test_load_config_from_text_and_file(tmp_path):
    text = BASE + "[data]\nf_x = 1\nf_y = 0\n"
    cfg = load_config(text)
    assert cfg.material["mu"] == "1.0"
    path = tmp_path / "run.ini"
    path.write_text(text)
    cfg2 = load_config(str(path))
    assert cfg2.data == cfg.data
    # a section the program does not read, such as a former [solver], is an error
    with pytest.raises(ConfigError, match=r"^\[solver\]: unknown section"):
        load_config(text + "[solver]\nkind = lu\n")


def test_load_config_path_with_equals_sign(tmp_path):
    text = BASE + "[data]\nf_x = 1\nf_y = 0\n"
    path = tmp_path / "eps=1e-3.ini"
    path.write_text(text)
    assert load_config(str(path)) == load_config(text)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config("[domain]\nkind = lshape\n")  # missing sections
    bad_mu = BASE.replace("mu = 1.0", "nu = 1.0")
    with pytest.raises(ConfigError):
        load_config(bad_mu + "[data]\nf_x = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"))


@pytest.mark.parametrize("text", [
    BASE.replace("h = 0.25", "h = 0.25\nh = 0.1") + "[data]\nf_x = 1\n",
    "h = 0.25\n" + BASE + "[data]\nf_x = 1\n",
], ids=["duplicate-key", "no-section-header"])
def test_load_config_parser_errors_are_config_errors(tmp_path, capsys, text):
    with pytest.raises(ConfigError):
        load_config(text)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert main(["extract", "--family", "penalized", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("text,error", [
    ("1 +", "line 1, col 4: expected a value"),
    ("z", "unknown identifier 'z'"),
    ("(" * 400 + "x" + ")" * 400, "line 1, col 51: expected at most 50 levels of nesting"),
])
def test_build_problem_reports_bad_expressions(text, error):
    cfg = load_config(BASE + f"[data]\ng_x = 0\nf_x = {text}\n")
    with pytest.raises(ConfigError) as info:
        build_problem(cfg, ["mu"])
    assert str(info.value) == f"[data] f_x = {text!r}: {error}"


def test_build_data_per_edge_overrides():
    cfg = load_config(BASE + "[data]\ng_x = x\ng3_x = 2*x\n")
    polygon, _, mu, f, g, zeta = build_problem(cfg, ["mu"])
    assert mu == 1.0 and f is None and zeta is None
    pt = (0.5, 1.0)
    for edge in polygon.edges:
        val = g.traces[edge.tag](*pt)
        want = 1.0 if edge.tag == 3 else 0.5
        assert val[0] == pytest.approx(want)
        assert val[1] == 0.0


@pytest.mark.parametrize("line", ["gg3_x = x*y", "fz = 3", "g7_x = x",
                                  "case = penalized"])
def test_build_data_rejects_unknown_keys(line):
    """A key that build_data would not read is an error, not zero data."""
    cfg = load_config(BASE + "[data]\nf_x = 1\n" + line + "\n")
    with pytest.raises(ConfigError, match=rf"^\[data\] {line.split()[0]}: unknown key"):
        build_problem(cfg, ["mu"])


def test_build_data_defaults_to_zero_traces():
    cfg = load_config(BASE + "[data]\nf_x = 1\n")
    polygon, _, _, _, g, _ = build_problem(cfg, ["mu"])
    x = np.array([0.1, 0.5])
    for edge in polygon.edges:
        assert np.all(g.traces[edge.tag](x, x) == 0.0)


# -- emission ------------------------------------------------------------------

def sample_record(eps=1e-2, wall=0.5):
    return SweepRecord(eps=eps, lambda1=0.54, lambda2=0.9, gamma1=1.0,
                       gamma2=2.0, c1=0.1, c2=0.2, c1_ref=0.1, c2_ref=0.2,
                       dc1=1e-3, dc2=2e-3, w_diff_h1=1e-2, sigma_diff_l2=1e-2,
                       wall_time=wall)


def test_emit_json_roundtrip(tmp_path):
    report = {"schema": SCHEMA, "kind": "eps_sweep",
              "records": [sample_record()], "slopes": {"dc1": 1.0}}
    path = tmp_path / "out.json"
    text = emit(report, format="json", path=str(path))
    back = json.loads(path.read_text())
    assert back == json.loads(text)
    assert back["schema"] == SCHEMA
    assert back["records"][0]["eps"] == 1e-2


def test_emit_csv_columns(tmp_path):
    report = {"records": [sample_record(1e-1), sample_record(1e-2)]}
    text = emit(report, format="csv", path=str(tmp_path / "out.csv"))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == SWEEP_COLUMNS
    assert len(rows) == 3
    with pytest.raises(ValueError):
        emit({"no": "rows"}, format="csv", path=str(tmp_path / "x.csv"))
    for empty in ([], {"records": []}, {"rows": []}):
        with pytest.raises(ValueError, match="at least one row"):
            emit(empty, format="csv", path=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        emit(report, format="yaml", path=str(tmp_path / "x.yaml"))


# -- experiment drivers ----------------------------------------------------------

def test_manufactured_smooth_case_recovers_zero():
    cfg = load_config(BASE.replace("h = 0.25", "h_levels = 0.1")
                      + "[data]\ncase = smooth\n")
    out = run_manufactured(cfg)
    assert out["schema"] == SCHEMA and out["c_true"] == [0.0, 0.0]
    row = out["rows"][0]
    assert abs(row["c1"]) < 5e-3
    assert abs(row["c2"]) < 5e-3


def test_manufactured_stokes_case_below_the_critical_angle():
    """At omega = 1.2 pi the Stokes corner has one mode: the case is
    u = w + Phi1 with c_true = (1.0,)."""
    omega = 1.2 * math.pi
    polygon = build_polygon([(0.0, 0.0)] + [(math.cos(t), math.sin(t))
                                             for t in np.linspace(0.0, omega, 5)])
    assert polygon.omega == pytest.approx(omega, abs=1e-14)
    material = MaterialParams(1.3, 0.0)
    f, traces, c_true, family = harness.manufactured_fields("stokes", material, polygon)
    assert c_true == (1.0,) and family == "stokes"
    phi1 = make_mode("stokes", "primal", 1, polygon.frame, material)
    edge = polygon.far_edges[0]
    x, y = 0.5 * (edge.p0 + edge.p1)
    w = np.array([2.0 * x * x * y, -2.0 * x * y * y])
    assert np.array_equal(traces[edge.tag](np.array([x]), np.array([y]))[0],
                          w + phi1.eval_xy(np.array([x]), np.array([y]))[0])


def test_manufactured_unknown_case():
    cfg = load_config(BASE + "[data]\ncase = bogus\n")
    with pytest.raises(ConfigError):
        run_manufactured(cfg)
    # case is the only [data] key a manufactured run reads.
    cfg = load_config(BASE + "[data]\ncase = smooth\nf_x = 1\n")
    with pytest.raises(ConfigError, match=r"^\[data\] f_x: unknown key"):
        run_manufactured(cfg)


@pytest.mark.parametrize("command,edit,data,error", [
    (["extract", "--family", "penalized"], None, "f_x = 1\ngg3_x = x*y\nfz = 3\n",
     "[data] gg3_x: unknown key"),
    (["extract", "--family", "stokes"], None, "f_x = 1\nzeta_x = x\n",
     "[data] zeta_x: unknown key"),
    (["manufactured"], None, "case = smooth\nzeta = x\n", "[data] zeta: unknown key"),
    (["extract", "--family", "penalized"], ("levels = 4", "levles = 3"), "f_x = 1\n",
     "[mesh] levles: unknown key"),
    (["solve", "--eps", "1e-3"], ("levels = 4", "levels = 4\ngrading_ratio = 0.3"),
     "f_x = 1\n", "[mesh] grading_ratio: unknown key"),
    (["sweep"], ("mu = 1.0", "mu = 1.0\nmuu = 7\neps_grid = 1e-1 1e-2 1e-3 1e-4"),
     "f_x = 1\n", "[material] muu: unknown key"),
    (["manufactured"], ("size = 1.0", "sise = 2"), "case = smooth\n",
     "[domain] sise: unknown key"),
    (["extract", "--family", "stokes"], ("[material]", "[meshh]\nlevels = 3\n[material]"),
     "f_x = 1\n", "[meshh]: unknown section"),
    (["sweep"], ("[material]", "[output]\nformat = json\n[material]"), "f_x = 1\n",
     "[output]: unknown section"),
    # A bad expression or number, found before meshing too.
    (["extract", "--family", "penalized"], None, "f_x = 1 +\n",
     "[data] f_x = '1 +': line 1, col 4: expected a value"),
    (["extract", "--family", "stokes"], ("mu = 1.0", "mu = abc"), "f_x = 1\n",
     "[material] mu = 'abc': expected one float"),
    # Keys that another command reads.
    (["extract", "--family", "penalized"], ("h = 0.25", "h_levels = 0.5"), "f_x = 1\n",
     "[mesh] h_levels: not read by this command"),
    (["extract", "--family", "penalized"], ("mu = 1.0", "mu = 1.0\neps = 0.5"),
     "f_x = 1\n", "[material] eps: not read by this command"),
    (["extract", "--family", "stokes"], ("mu = 1.0", "mu = 1.0\neps_grid = 1 2"),
     "f_x = 1\n", "[material] eps_grid: not read by this command"),
    (["solve", "--eps", "1e-3"], ("h = 0.25", "h = 0.25\nh_levels = 0.5"), "f_x = 1\n",
     "[mesh] h_levels: not read by this command"),
    (["solve", "--eps", "1e-3"], ("mu = 1.0", "mu = 1.0\neps = 0.5"), "f_x = 1\n",
     "[material] eps: not read by this command"),
    (["solve", "--eps", "0"], ("mu = 1.0", "mu = 1.0\neps_grid = 1 2"), "f_x = 1\n",
     "[material] eps_grid: not read by this command"),
    (["sweep"], ("[material]\nmu = 1.0",
                 "h_levels = 0.5\n[material]\nmu = 1.0\neps_grid = 1e-1 1e-2 1e-3 1e-4"),
     "f_x = 1\n", "[mesh] h_levels: not read by this command"),
    (["sweep"], ("mu = 1.0", "mu = 1.0\neps = 0.5\neps_grid = 1e-1 1e-2 1e-3 1e-4"),
     "f_x = 1\n", "[material] eps: not read by this command"),
    (["manufactured"], ("mu = 1.0", "mu = 1.0\neps_grid = 1 2"), "case = smooth\n",
     "[material] eps_grid: not read by this command"),
    (["manufactured"], ("h = 0.25", "h = 0.25\nh_levels = 0.5"), "case = smooth\n",
     "[mesh] h: not read by this command"),
], ids=["extract-penalized", "extract-stokes", "manufactured", "mesh-levles",
        "mesh-grading-ratio", "material-muu", "domain-sise", "section-meshh",
        "section-output", "expression-f-x", "mu-abc", "extract-h-levels", "extract-eps", "extract-eps-grid", "solve-h-levels",
        "solve-eps", "solve-eps-grid", "sweep-h-levels", "sweep-eps",
        "manufactured-eps-grid", "manufactured-h-and-h-levels"])
def test_cli_unknown_data_key_is_a_config_error(tmp_path, capsys, monkeypatch, command,
                                                edit, data, error):
    """A key or section that the command does not read, a bad expression and
    a bad number are config errors."""
    meshed, mesher = [], harness.generate_lshape_mesh
    monkeypatch.setattr(harness, "generate_lshape_mesh",
                        lambda *a, **k: meshed.append(a) or mesher(*a, **k))
    cfg = tmp_path / "typo.ini"
    cfg.write_text((BASE if edit is None else BASE.replace(*edit)) + "[data]\n" + data)
    rc = main(command + ["--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {error}") and err.count("\n") == 1
    # Every key is checked before any mesh is generated.
    assert meshed == []


@pytest.mark.parametrize("command,old,new,key,data", [
    (["extract", "--family", "stokes"], "mu = 1.0", "mu = abc", "[material] mu", "f_x = 1"),
    (["solve", "--eps", "1e-3"], "levels = 4", "levels = 2.5", "[mesh] levels", "f_x = 1"),
    (["extract", "--family", "penalized"], "size = 1.0", "size = big", "[domain] size",
     "f_x = 1"),
    (["sweep"], "mu = 1.0", "mu = 1.0\neps_grid = 1e-1 x 1e-3 1e-4",
     "[material] eps_grid", "f_x = 1"),
    (["manufactured"], "h = 0.25", "h_levels =", "[mesh] h_levels", "case = smooth"),
    (["manufactured"], "h = 0.25", "h_levels = 0.25 0.25", "[mesh] h_levels",
     "case = smooth"),
    (["manufactured"], "h = 0.25", "h_levels = 0.25 -0.1", "[mesh] h_levels",
     "case = smooth"),
    (["extract", "--family", "penalized"], "size = 1.0", "size = -1", "[domain] size",
     "f_x = 1"),
    (["extract", "--family", "penalized"], "size = 1.0", "size = inf", "[domain] size",
     "f_x = 1"),
    (["solve", "--eps", "1e-3"], "h = 0.25", "h = -1", "[mesh] h", "f_x = 1"),
    (["extract", "--family", "penalized"], "h = 0.25", "h = 0", "[mesh] h", "f_x = 1"),
    (["extract", "--family", "penalized"], "h = 0.25", "h = inf", "[mesh] h", "f_x = 1"),
    (["extract", "--family", "penalized"], "h = 0.25", "h = nan", "[mesh] h", "f_x = 1"),
    (["solve", "--eps", "1e-3"], "levels = 4", "levels = -1", "[mesh] levels", "f_x = 1"),
    (["manufactured"], "h = 0.25\nlevels = 4", "h_levels = 0.25\nlevels = -1",
     "[mesh] levels", "case = smooth"),
], ids=["mu-abc", "levels-2.5", "size-big", "eps-grid-x", "h-levels-empty",
        "h-levels-repeated", "h-levels-negative", "size-negative", "size-inf",
        "h-negative", "h-zero", "h-inf", "h-nan", "levels-negative",
        "manufactured-levels-negative"])
def test_cli_bad_number_is_a_config_error(tmp_path, capsys, monkeypatch, command, old, new,
                                          key, data):
    """A bad number is a ConfigError (exit 2) found before any mesh is made."""
    meshed, mesher = [], harness.generate_lshape_mesh
    monkeypatch.setattr(harness, "generate_lshape_mesh",
                        lambda *a, **k: meshed.append(a) or mesher(*a, **k))
    cfg = tmp_path / "number.ini"
    assert old in BASE
    cfg.write_text(BASE.replace(old, new) + f"[data]\n{data}\n")
    rc = main(command + ["--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} = ") and err.count("\n") == 1
    assert meshed == []


SWEEP_CFG = BASE + """
[data]
f_x = 1
f_y = 0
"""


def test_eps_sweep_grid_validation():
    with pytest.raises(ConfigError):
        run_eps_sweep(load_config(SWEEP_CFG))  # no eps_grid
    bad = SWEEP_CFG.replace("mu = 1.0", "mu = 1.0\neps_grid = 1e-1 1e-2")
    with pytest.raises(ConfigError):
        run_eps_sweep(load_config(bad))
    rising = SWEEP_CFG.replace(
        "mu = 1.0", "mu = 1.0\neps_grid = 1e-4 1e-3 1e-2 1e-1")
    with pytest.raises(ConfigError):
        run_eps_sweep(load_config(rising))
    for tail in ("0", "-1e-4"):
        nonpositive = SWEEP_CFG.replace(
            "mu = 1.0", f"mu = 1.0\neps_grid = 1e-1 1e-2 1e-3 {tail}")
        with pytest.raises(ConfigError, match="positive"):
            run_eps_sweep(load_config(nonpositive))


def test_zero_data_sweep_fits_no_slope(tmp_path):
    """On zero data every gap is exactly 0: each slope is null, no log(0) is
    taken, and the JSON output holds no NaN."""
    cfg = load_config(BASE.replace("mu = 1.0", "mu = 1.0\neps_grid = 1e-1 1e-2 1e-3 1e-4")
                      + "[data]\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run_eps_sweep(cfg)
    assert out["slopes"] == dict.fromkeys(["dc1", "dc2", "w_diff_h1", "sigma_diff_l2"])

    def no_constant(name):
        raise ValueError(f"{name} in strict JSON")

    text = emit(out, format="json", path=str(tmp_path / "sweep.json"))
    assert json.loads(text, parse_constant=no_constant)["slopes"]["dc1"] is None


def test_eps_sweep_deterministic_up_to_wall_time():
    cfg_text = SWEEP_CFG.replace(
        "mu = 1.0", "mu = 1.0\neps_grid = 1e-1 1e-2 1e-3 1e-4")
    a = run_eps_sweep(load_config(cfg_text))
    b = run_eps_sweep(load_config(cfg_text))
    assert a["schema"] == SCHEMA and a["kind"] == "eps_sweep"
    for ra, rb in zip(a["records"], b["records"]):
        for col in SWEEP_COLUMNS:
            if col == "wall_time":
                continue
            va, vb = getattr(ra, col), getattr(rb, col)
            assert va == vb or (math.isnan(va) and math.isnan(vb))
    # coefficient gaps shrink monotonically toward the reference
    dc1 = [r.dc1 for r in a["records"]]
    assert all(y < x for x, y in zip(dc1, dc1[1:]))


def test_eps_sweep_factors_once_per_material(monkeypatch):
    """Four penalized operators plus the Stokes reference share one space:
    its blocks are assembled once and its two factorizations built once."""
    builds, build = [], P2Space.stokes_blocks.func

    def counting(space):
        builds.append(space)
        return build(space)

    blocks = functools.cached_property(counting)
    blocks.__set_name__(P2Space, "stokes_blocks")
    monkeypatch.setattr(P2Space, "stokes_blocks", blocks)
    calls = count_factorizations(monkeypatch)
    cfg_text = SWEEP_CFG.replace(
        "mu = 1.0", "mu = 1.0\neps_grid = 1e-1 1e-2 1e-3 1e-4")
    out = run_eps_sweep(load_config(cfg_text))
    assert len(out["records"]) == 4
    assert len(calls) == FACTORS_PER_SPACE
    assert len(builds) == 1


def test_eps_sweep_runs_one_shifted_data_solve(monkeypatch):
    """Six PCG runs: one data solve whose shifts are all five eps, and the
    second corrector alone for the Stokes reference and for each of the four
    eps: each extraction pairs its material's field instead of solving the
    first corrector."""
    runs, pcg = [], P2Space._pcg

    def counting(space, mu, shifts, b, tol):
        runs.append((len(shifts), b.shape[1]))
        return pcg(space, mu, shifts, b, tol)

    monkeypatch.setattr(P2Space, "_pcg", counting)
    cfg_text = SWEEP_CFG.replace(
        "mu = 1.0", "mu = 1.0\neps_grid = 1e-1 1e-2 1e-3 1e-4")
    run_eps_sweep(load_config(cfg_text))
    assert len(runs) == 6
    assert sorted(runs) == [(1, 1)] * 5 + [(5, 1)]


# The force (y^2 - y, x), whose Stokes coefficients are nonzero, plus the
# force of the exact pair u = (x^2 y, 0), p = x y: g = u carries the flux of
# zeta = div u without changing the coefficients.
LIMIT_CFG = BASE.replace("h = 0.25", "h = 0.1").replace("levels = 4", "levels = 6") \
    .replace("mu = 1.0", "mu = 1.0\neps_grid = 1e-2 1e-3 1e-4 1e-5") \
    + "[data]\nf_x = y^2 - 2*y\nf_y = 2*x\ng_x = x^2*y\ng_y = 0\nzeta = 2*x*y\n"

# The benchmark's sweep: f = (1, 0) on the h = 0.05 mesh.
BENCH_SWEEP_CFG = BASE.replace("h = 0.25", "h = 0.05").replace("levels = 4", "levels = 6") \
    .replace("mu = 1.0", "mu = 1.0\neps_grid = 1e-1 1e-2 1e-3 1e-4") \
    + "[data]\nf_x = 1\nf_y = 0\n"


def test_eps_sweep_with_zeta_approaches_a_nontrivial_limit():
    """Both sides of the sweep solve div u + eps p = zeta with the same zeta
    (LIMIT_CFG).  Every gap falls like eps."""
    out = run_eps_sweep(load_config(LIMIT_CFG))
    assert abs(out["records"][0].c2_ref) > 1e-3
    for key, slope in out["slopes"].items():
        assert slope >= 0.9, (key, slope)


def test_eps_sweep_rejects_incompatible_stokes_data(monkeypatch):
    """The Stokes reference checks the flux before any penalized extraction
    and before anything is factored."""
    penalized = []
    monkeypatch.setattr(harness, "extract_sifs_penalized", penalized.append)
    calls = count_factorizations(monkeypatch)
    text = SWEEP_CFG.replace("mu = 1.0", "mu = 1.0\neps_grid = 1e-1 1e-2 1e-3 1e-4") \
        + "g_x = x^2 + 3*y^2\ng_y = -2*x*y\nzeta = 2*x + x*y\n"
    with pytest.raises(IncompatibleFlux):
        run_eps_sweep(load_config(text))
    assert penalized == []
    assert calls == []


@pytest.mark.parametrize("text", [BENCH_SWEEP_CFG, LIMIT_CFG], ids=["f10", "limit"])
def test_field_pairing_is_the_corrector_path(text):
    """Given each sweep field, both families' C1, C2 and C* (and c1, c2) are
    the corrector path's, to 1e-10 of the sum of the absolute terms of that
    functional: the residual-flux identity, up to the solves' residuals.  A
    plain relative bound would not do: C* is about 1e-13 on the symmetric
    L-shape."""
    cfg = load_config(text)
    polygon, mesh, mu, f, g, zeta = build_problem(cfg, ["mu", "eps_grid"])
    space = P2Space(mesh)
    materials = [MaterialParams(mu, eps) for eps in
                 (0.0, *harness.config_number(cfg, "material", "eps_grid", many=True))]
    solved = space.solve_all(materials, load_vector(space, f, zeta)[None],
                             dirichlet_values(space, g.traces)[None])
    for material, (u,) in zip(materials, solved):
        data = ProblemData(polygon=polygon, mesh=mesh, material=material, g=g, f=f,
                           zeta=zeta, space=space)
        extract = extract_sifs_stokes if material.eps == 0.0 else extract_sifs_penalized
        want = extract(data)
        got = extract(replace(data, field=u))
        assert got.terms["psi_residuals"] == [pytest.approx(0.0, abs=1e-10)]
        assert got.terms["field_residual"] == u.residual
        scale = {k: sum(abs(v) for v in want.terms[k].values()) for k in ("C1", "C2", "Cstar")}
        for k in scale:
            assert abs(getattr(got, k) - getattr(want, k)) <= 1e-10 * scale[k], (material, k)
        s1 = scale["C1"] / abs(want.gamma1)
        s2 = (scale["C2"] + abs(want.c1) * scale["Cstar"] + abs(want.Cstar) * s1) \
            / abs(want.gamma2)
        assert abs(got.c1 - want.c1) <= 1e-10 * s1, material
        assert abs(got.c2 - want.c2) <= 1e-10 * s2, material


def test_eps_sweep_mesh_id_is_the_extraction_mesh_id():
    cfg = load_config(SWEEP_CFG.replace(
        "mu = 1.0", "mu = 1.0\neps_grid = 1e-1 1e-2 1e-3 1e-4"))
    mesh = build_problem(cfg, ["mu", "eps_grid"])[1]
    assert run_eps_sweep(cfg)["mesh_id"] == _mesh_id(mesh)


SWEEP4_CFG = SWEEP_CFG.replace("mu = 1.0", "mu = 1.0\neps_grid = 1e-1 1e-2 1e-3 1e-4")


def test_eps_sweep_builds_one_point_set(monkeypatch):
    """The input check and the five field-paired extractions of a sweep share
    one _SamplePoints."""
    built = []
    build = extraction._sample_points
    monkeypatch.setattr(extraction, "_sample_points",
                        lambda *args: built.append(args[1]) or build(*args))
    run_eps_sweep(load_config(SWEEP4_CFG))
    assert len(built) == 1


def test_sweep_points_are_freed_by_an_extraction_on_another_mesh(monkeypatch):
    """A sweep's point set, with its mesh and space, is kept after the sweep,
    and freed as soon as an extraction on another mesh starts: before that
    mesh's space is built."""
    run_eps_sweep(load_config(SWEEP4_CFG))
    points = extraction._memo[0]
    refs = [weakref.ref(x) for x in (points, points.mesh, points.space)]
    del points
    gc.collect()
    assert all(ref() is not None for ref in refs)
    freed, init = [], P2Space.__init__

    def counting(self, mesh):
        gc.collect()
        freed.append([ref() is None for ref in refs])
        init(self, mesh)

    monkeypatch.setattr(P2Space, "__init__", counting)
    polygon = lshape_polygon(1.0)
    zero = lambda x, y: np.zeros(np.shape(x) + (2,))
    extract_sifs_penalized(ProblemData(
        polygon=polygon, mesh=generate_lshape_mesh(polygon, 0.25, levels=3),
        material=MaterialParams(1.0, 1e-3), g=BoundaryData({e.tag: zero for e in polygon.edges})))
    assert freed == [[True, True, True]]


# -- CLI -----------------------------------------------------------------------

def _read_csv(path):
    return list(csv.reader(open(path, newline="")))


def test_cli_eigen(tmp_path):
    out = tmp_path / "eigen.csv"
    rc = main(["eigen", "--family", "lame", "--omega", str(1.5 * math.pi),
               "--mu", "1.0", "--eps", "1e-3", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0][:4] == ["family", "omega", "C", "e1"]
    e1 = float(rows[1][3])
    assert 0.5 < e1 < 0.6


def test_cli_mode_and_gamma(tmp_path):
    out = tmp_path / "mode.csv"
    rc = main(["mode", "--family", "stokes", "--kind", "primal", "--index", "1",
               "--omega", str(1.5 * math.pi), "--at", "0.5,1.0",
               "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0][-1] == "pressure"
    assert all(np.isfinite(float(v)) for v in rows[1][3:])

    gout = tmp_path / "gamma.csv"
    rc = main(["gamma", "--family", "lame", "--index", "1",
               "--omega", str(1.5 * math.pi), "--eps-grid", "1e-2,1e-4,3",
               "--out", str(gout)])
    assert rc == 0
    rows = _read_csv(gout)
    assert len(rows) == 4  # header + 3 eps values
    gammas = [float(r[3]) for r in rows[1:]]
    assert all(abs(g) > 1e-8 for g in gammas)


def test_cli_identity_check(tmp_path):
    out = tmp_path / "id.csv"
    rc = main(["identity-check", "--index", "1", "--omega", str(1.5 * math.pi),
               "--eps", "1e-3", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    dev, scale = float(rows[1][2]), float(rows[1][3])
    assert dev < 1e-12 * scale
    # A grid of one value is that value.
    rc = main(["identity-check", "--index", "1", "--omega", str(1.5 * math.pi),
               "--eps-grid", "1e-3,1e-1,1", "--out", str(out)])
    assert rc == 0
    assert _read_csv(out)[1:] == rows[1:]


def test_cli_solve_and_extract(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE + "[data]\nf_x = 1\nf_y = 0\n")
    sol = tmp_path / "solve.csv"
    rc = main(["solve", "--config", str(cfg), "--eps", "1e-3",
               "--out", str(sol)])
    assert rc == 0
    rows = _read_csv(sol)
    assert rows[0] == ["x", "y", "ux", "uy", "p"]
    assert len(rows) > 10

    ext = tmp_path / "extract.json"
    rc = main(["extract", "--config", str(cfg), "--family", "penalized",
               "--eps", "1e-2", "--out", str(ext)])
    assert rc == 0
    payload = json.loads(ext.read_text())
    assert payload["schema"] == SCHEMA
    assert payload["family"] == "penalized"
    assert np.isfinite(payload["c1"]) and np.isfinite(payload["c2"])


def test_cli_manufactured(tmp_path):
    cfg = tmp_path / "manu.ini"
    cfg.write_text(BASE.replace("h = 0.25", "h_levels = 0.1")
                   + "[data]\ncase = smooth\n")
    out = tmp_path / "manu.json"
    rc = main(["manufactured", "--config", str(cfg), "--format", "json",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "manufactured"
    assert abs(payload["rows"][0]["c1"]) < 1e-2


@pytest.mark.parametrize("command", [
    ["extract", "--family", "penalized", "--format", "csv"],
    ["solve", "--eps", "1e-3", "--format", "json"],
], ids=["extract", "solve"])
def test_cli_format_is_a_usage_error_for_solve_and_extract(tmp_path, capsys, command):
    """extract writes JSON and solve CSV: a --format they would ignore is refused."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE + "[data]\nf_x = 1\n")
    with pytest.raises(SystemExit) as info:
        main(command + ["--config", str(cfg)])
    assert info.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gamma", "identity-check"])
@pytest.mark.parametrize("grid, message", [
    ("1e-3,1e-1,0", "n must be at least 1"),
    ("1e-3,1e-1,-2", "n must be at least 1"),
    ("1e-3,1e-1", "expected lo,hi,n"),
    ("1e-3,1e-2,1e-1,3", "expected lo,hi,n"),
    ("1e-3,abc,3", "expected two numbers and a count"),
    ("1e-3,1e-1,2.5", "expected two numbers and a count"),
    ("0,1e-1,3", "lo and hi must be positive and finite"),
    ("1e-3,-1e-1,3", "lo and hi must be positive and finite"),
    ("1e-3,inf,3", "lo and hi must be positive and finite"),
    ("nan,1e-1,3", "lo and hi must be positive and finite"),
], ids=["n-0", "n-negative", "two-fields", "four-fields", "word", "n-float",
        "lo-0", "hi-negative", "hi-inf", "lo-nan"])
def test_cli_bad_eps_grid_is_a_usage_error(capsys, command, grid, message):
    """A malformed --eps-grid ends in one usage error line, before any work."""
    args = [command, "--omega", str(1.5 * math.pi), "--eps-grid", grid]
    if command == "gamma":
        args += ["--family", "lame"]
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --eps-grid: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("at, message", [
    ("nan,1", "r and theta must be finite"),
    ("1,nan", "r and theta must be finite"),
    ("inf,1", "r and theta must be finite"),
    ("1,2,3", "expected r,theta"),
    ("0.5", "expected r,theta"),
    ("abc,1", "expected two numbers r,theta"),
], ids=["r-nan", "theta-nan", "r-inf", "three-fields", "one-field", "word"])
def test_cli_mode_bad_at_is_a_usage_error(capsys, at, message):
    """A malformed --at ends in one usage error line, before any evaluation."""
    with pytest.raises(SystemExit) as info:
        main(["mode", "--family", "lame", "--omega", str(1.5 * math.pi), "--at", at])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --at: {message}" in err
    assert "Traceback" not in err


def test_cli_mode_stokes_row_carries_the_pressure(capsys):
    """The Stokes row gives the pressure at the point of its other columns."""
    omega = 1.5 * math.pi
    assert main(["mode", "--family", "stokes", "--index", "1", "--omega", str(omega),
                 "--at", "0.5,1.0"]) == 0
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    mode = make_mode("stokes", "primal", 1, CornerFrame(0.0, omega), MaterialParams(1.0, 0.0))
    assert float(row["pressure"]) == float(mode.eval_pressure(0.5, 1.0))
    assert float(row["vx"]) == mode.eval(0.5, 1.0)[0]


def test_cli_reports_config_errors(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[domain]\nkind = lshape\n")
    rc = main(["sweep", "--config", str(cfg)])
    assert rc == 2


def test_cli_manufactured_checks_the_domain_kind(tmp_path, capsys):
    cfg = tmp_path / "square.ini"
    cfg.write_text(BASE.replace("kind = lshape", "kind = square")
                   + "[data]\ncase = smooth\n")
    rc = main(["manufactured", "--config", str(cfg)])
    assert rc == 2
    assert "unsupported domain kind 'square'" in capsys.readouterr().err


def test_cli_reports_library_errors_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "corner.ini"
    cfg.write_text(BASE + "[data]\nf_x = 1\ng_x = 1\n")  # g(0, 0) != 0
    rc = main(["extract", "--config", str(cfg), "--family", "penalized",
               "--eps", "1e-2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CornerDataNonzero: ")
    assert err.count("\n") == 1 and "Traceback" not in err


OMEGA = "4.71238898038469"


@pytest.mark.parametrize("argv,config,error", [
    (["extract", "--family", "penalized", "--eps", "0"], BASE, "ValueError"),
    (["eigen", "--family", "lame", "--omega", "1.0"], None, "ValueError"),
    (["mode", "--family", "lame", "--index", "3", "--omega", OMEGA, "--at", "1,0"],
     None, "IndexOutOfRange"),
    (["mode", "--family", "lame", "--omega", OMEGA, "--at", "0,0"],
     None, "NonpositiveRadius"),
    (["mode", "--family", "stokes", "--index", "2", "--omega", "3.8", "--at", "1,1"],
     None, "IndexOutOfRange"),
    (["gamma", "--family", "stokes", "--index", "2", "--omega", "3.8"],
     None, "IndexOutOfRange"),
    (["eigen", "--family", "lame", "--omega", OMEGA, "--mu", "inf", "--eps", "1e-3"],
     None, "ValueError"),
    (["gamma", "--family", "lame", "--omega", OMEGA, "--eps", "inf"],
     None, "ValueError"),
    # g = (xy, 0) carries flux 0.5 and there is no zeta.
    (["extract", "--family", "stokes"],
     BASE + "[data]\nf_x = 1 + y\nf_y = x*x\ng_x = x*y\n", "IncompatibleFlux"),
], ids=["extract-eps-0", "eigen-convex-omega",
        "mode-index-3", "mode-at-corner", "mode-stokes-2-below-critical",
        "gamma-stokes-2-below-critical", "eigen-mu-inf", "gamma-eps-inf",
        "stokes-flux"])
def test_cli_reports_bad_input_in_one_line(tmp_path, capsys, argv, config, error):
    if config is not None:
        cfg = tmp_path / "run.ini"
        # A config without a [data] section gets the default one.
        cfg.write_text(config if "[data]" in config else config + "[data]\nf_x = 1\n")
        argv = argv + ["--config", str(cfg)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {error}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("module", ["angular", "expr", "extraction", "fem",
                                    "geometry", "harness", "modes", "spectral"])
def test_named_errors_share_the_package_base(module):
    mod = importlib.import_module(f"sif_lab.{module}")
    errors = [obj for obj in (getattr(mod, name) for name in mod.__all__)
              if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert errors
    for exc in errors:
        assert issubclass(exc, SifLabError), exc


def test_cli_solve_prints_flux_defect_at_eps_zero(tmp_path, capsys):
    cfg = tmp_path / "stokes.ini"
    cfg.write_text(BASE + "[data]\nf_x = 1\ng_x = y\n")
    rc = main(["solve", "--config", str(cfg), "--eps", "0",
               "--out", str(tmp_path / "solve.csv")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    defect = [ln for ln in lines if ln.startswith("flux_defect = ")]
    assert len(defect) == 1 and np.isfinite(float(defect[0].split("=")[1]))


SOLVE_DATA = "[data]\nf_x = 1 + y\nf_y = x*x\ng_x = x*y\ng_y = y*y - x*x\nzeta = x*y*y\n"


@pytest.mark.parametrize("eps", [1e-3, 0.0])
def test_cli_solve_is_the_operator_solve(tmp_path, capsys, eps):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE + SOLVE_DATA)
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", str(cfg), "--eps", repr(eps), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()

    _, mesh, _, f, g, zeta = build_problem(load_config(str(cfg)), ["mu"])
    space = P2Space(mesh)
    field = space.solve(MaterialParams(1.0, eps), load_vector(space, f, zeta),
                        dirichlet_values(space, g.traces))

    rows = _read_csv(out)[1:]
    assert len(rows) == space.n_scalar
    cols = np.array([[float(v) for v in r[:4]] for r in rows])
    assert np.array_equal(cols[:, :2], space.dof_coords)
    assert np.array_equal(cols[:, 2], field.ux) and np.array_equal(cols[:, 3], field.uy)
    Np = mesh.n_nodes
    assert np.array_equal([float(r[4]) for r in rows[:Np]], field.p)
    assert all(r[4] == "" for r in rows[Np:])
    assert f"solver_iterations = {field.iterations}" in printed
    defect = [ln for ln in printed if ln.startswith("flux_defect = ")]
    if eps == 0.0:
        assert defect == [f"flux_defect = {field.flux_defect:.12e}"]
        assert field.flux_defect != 0.0
    else:
        assert defect == []


TERM_ORDER = {
    "penalized": ["C1", "C2", "Cstar", "psi_residuals", "psi_flux_defects",
                  "gamma_quad_errors"],
    "stokes": ["C1", "psi_residuals", "psi_flux_defects", "gamma_quad_errors",
               "mode_count", "C2", "Cstar"],
}


@pytest.mark.parametrize("family", ["penalized", "stokes"])
def test_cli_extract_terms_order(tmp_path, family):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE + "[data]\nf_x = 1 + y\nf_y = x*x\ng_x = x*y\nzeta = y\n")
    out = tmp_path / "extract.json"
    assert main(["extract", "--config", str(cfg), "--family", family,
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload["terms"]) == TERM_ORDER[family]
    assert payload["eps"] == (1e-3 if family == "penalized" else None)
