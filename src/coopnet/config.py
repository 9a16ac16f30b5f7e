"""Line-oriented scenario config format: parsing, validation, emission.

Sections are bracketed (``[node 1]``, ``[edge 2 from=1 to=3]``); keys are
``name = value`` lines; matrices are written row-major with ``;`` between
entries and ``|`` between rows (``A = 0; 1 | -2; -3``).  Unknown sections
and keys are rejected.  ``format_config`` emits text that parses back to an
equal scenario (17 significant digits).
"""

import re

import numpy as np

from .analysis import edge_system, node_system
from .errors import ParseError, ValidationError
from .network import StaticNode, is_static
from .scenarios import Scenario
from .synthesis import NodeGains
from .topology import validate_incidence

_SCENARIO_KEYS = {"name", "regime", "eps", "roles"}
_EXO_KEYS = {"S", "Q_eta", "Q_v", "P_eta"}
_NODE_KEYS = {"A", "B", "C", "D", "ground"}
_CTRL_KEYS = {"K_x", "K_zeta", "G1", "G2", "synthesize"}
_EDGE_KEYS = {"E", "F", "G"}
_SIM_KEYS = {"dt", "t_end"}
_TOPO_KEYS = {"H"}
_REF_RE = re.compile(r"^(nu|eta|etabar)(\d+)$")


def _parse_number(text, field):
    """One finite float, else ValidationError naming ``field``."""
    try:
        val = float(text)
    except ValueError as exc:
        raise ValidationError(field, f"bad number {text!r}") from exc
    if not np.isfinite(val):
        raise ValidationError(field, f"non-finite value {text!r}")
    return val


def _parse_matrix(text, field):
    rows = []
    for row_text in text.split("|"):
        entries = [e.strip() for e in row_text.split(";")]
        row = []
        for e in entries:
            if not e:
                raise ValidationError(field, "empty matrix entry")
            row.append(_parse_number(e, field))
        rows.append(row)
    if len({len(r) for r in rows}) != 1:
        raise ValidationError(field, "ragged matrix rows")
    return np.array(rows, dtype=float)


def _format_matrix(mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return " | ".join("; ".join(f"{v:.17g}" for v in row) for row in mat)


def _split_sections(text):
    """-> list of (header, line_no, {key: (value, line_no)})."""
    sections = []
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(ln, "unterminated section header")
            current = (line[1:-1].strip(), ln, {})
            sections.append(current)
            continue
        if "=" not in line:
            raise ParseError(ln, f"expected 'key = value', got {line!r}")
        if current is None:
            raise ParseError(ln, "key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current[2]:
            raise ParseError(ln, f"duplicate key {key!r}")
        current[2][key] = (value, ln)
    return sections


def _check_keys(header, found, allowed):
    for key, (_, ln) in found.items():
        if key not in allowed:
            raise ParseError(ln, f"unknown key {key!r} in [{header}]")


def parse_config(text):
    """Parse config text into a validated Scenario.

    Raises
    ------
    ParseError
        On malformed lines (carries the line number).
    ValidationError
        On structurally invalid values (carries the field path).
    """
    sections = _split_sections(text)
    scenario_kv = exo_kv = sim_kv = refs_kv = topo_kv = None
    node_kv, ctrl_kv, edge_kv, edge_meta = {}, {}, {}, {}
    for header, ln, kv in sections:
        parts = header.split()
        tag = parts[0]
        if tag == "scenario":
            scenario_kv = kv
            _check_keys(header, kv, _SCENARIO_KEYS)
        elif tag == "exosystem":
            exo_kv = kv
            _check_keys(header, kv, _EXO_KEYS)
        elif tag == "simulation":
            sim_kv = kv
            _check_keys(header, kv, _SIM_KEYS)
        elif tag == "references":
            refs_kv = kv
        elif tag == "topology":
            topo_kv = kv
            _check_keys(header, kv, _TOPO_KEYS)
        elif tag == "node":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(ln, f"bad node header [{header}]")
            node_kv[int(parts[1])] = (kv, ln)
            _check_keys(header, kv, _NODE_KEYS)
        elif tag == "controller":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(ln, f"bad controller header [{header}]")
            ctrl_kv[int(parts[1])] = (kv, ln)
            _check_keys(header, kv, _CTRL_KEYS)
        elif tag == "edge":
            if len(parts) != 4 or not parts[1].isdigit():
                raise ParseError(
                    ln, f"bad edge header [{header}] "
                        f"(want [edge j from=a to=b])")
            meta = {}
            for part in parts[2:]:
                if "=" not in part:
                    raise ParseError(ln, f"bad edge attribute {part!r}")
                k, v = part.split("=", 1)
                if k not in ("from", "to") or not v.isdigit():
                    raise ParseError(ln, f"bad edge attribute {part!r}")
                meta[k] = int(v)
            if set(meta) != {"from", "to"}:
                raise ParseError(ln, "edge needs both from= and to=")
            edge_kv[int(parts[1])] = (kv, ln)
            edge_meta[int(parts[1])] = (meta["from"], meta["to"])
            _check_keys(header, kv, _EDGE_KEYS)
        else:
            raise ParseError(ln, f"unknown section [{header}]")

    if scenario_kv is None:
        raise ValidationError("scenario", "missing [scenario] section")
    if exo_kv is None:
        raise ValidationError("exosystem", "missing [exosystem] section")

    def need(kv, key, field):
        if key not in kv:
            raise ValidationError(field, "missing")
        return kv[key][0]

    name = need(scenario_kv, "name", "scenario.name")
    regime = need(scenario_kv, "regime", "scenario.regime")
    eps = _parse_number(need(scenario_kv, "eps", "scenario.eps"),
                        "scenario.eps")
    roles = None
    if "roles" in scenario_kv:
        roles = {}
        for item in scenario_kv["roles"][0].split():
            if ":" not in item:
                raise ValidationError("scenario.roles",
                                      f"bad role entry {item!r}")
            nid, role = item.split(":", 1)
            if not nid.isdigit() or role not in ("master", "slave"):
                raise ValidationError("scenario.roles",
                                      f"bad role entry {item!r}")
            roles[int(nid)] = role

    s_mat = _parse_matrix(need(exo_kv, "S", "exosystem.S"), "exosystem.S")
    q_eta = _parse_matrix(need(exo_kv, "Q_eta", "exosystem.Q_eta"),
                          "exosystem.Q_eta")
    q_v = _parse_matrix(need(exo_kv, "Q_v", "exosystem.Q_v"),
                        "exosystem.Q_v")
    p_eta = _parse_matrix(exo_kv["P_eta"][0], "exosystem.P_eta") \
        if "P_eta" in exo_kv else None

    if not node_kv:
        raise ValidationError("nodes", "no [node i] sections")
    n_nodes = max(node_kv)
    if sorted(node_kv) != list(range(1, n_nodes + 1)):
        raise ValidationError("nodes", "node indices must be 1..N contiguous")
    p_dim = q_eta.shape[0]
    nodes = []
    for i in range(1, n_nodes + 1):
        kv, _ = node_kv[i]
        field = f"nodes[{i - 1}]"
        if kv.get("ground", ("false",))[0].lower() in ("true", "1", "yes"):
            extra = set(kv) - {"ground"}
            if extra:
                raise ValidationError(field,
                                      f"ground node takes no matrices: "
                                      f"{sorted(extra)}")
            nodes.append(StaticNode(p=p_dim))
            continue
        a = _parse_matrix(need(kv, "A", f"{field}.A"), f"{field}.A")
        b = _parse_matrix(need(kv, "B", f"{field}.B"), f"{field}.B")
        c = _parse_matrix(need(kv, "C", f"{field}.C"), f"{field}.C")
        d = _parse_matrix(kv["D"][0], f"{field}.D") if "D" in kv else None
        nodes.append(node_system(A=a, B=b, C=c, D_in=d))

    edges, edge_ends = [], []
    m_edges = max(edge_kv) if edge_kv else 0
    if sorted(edge_kv) != list(range(1, m_edges + 1)):
        raise ValidationError("edges", "edge indices must be 1..M contiguous")
    for j in range(1, m_edges + 1):
        kv, _ = edge_kv[j]
        field = f"edges[{j - 1}]"
        e = _parse_matrix(need(kv, "E", f"{field}.E"), f"{field}.E")
        f = _parse_matrix(need(kv, "F", f"{field}.F"), f"{field}.F")
        g = _parse_matrix(need(kv, "G", f"{field}.G"), f"{field}.G")
        edges.append(edge_system(E=e, F=f, G=g))
        a, b = edge_meta[j]
        if not (1 <= a <= n_nodes and 1 <= b <= n_nodes):
            raise ValidationError(f"{field}.ends",
                                  f"endpoint outside [1, {n_nodes}]")
        if a == b:
            raise ValidationError(f"{field}.ends", "self-loop")
        edge_ends.append((a, b))

    gains = {}
    for i, (kv, ln) in ctrl_kv.items():
        field = f"controllers[{i - 1}]"
        if not 1 <= i <= n_nodes:
            raise ValidationError(field, "unknown node")
        if kv.get("synthesize", ("false",))[0].lower() in ("true", "1",
                                                           "yes"):
            extra = set(kv) - {"synthesize"}
            if extra:
                raise ValidationError(
                    field, f"synthesize=true takes no gains: {sorted(extra)}")
            continue
        k_x = _parse_matrix(need(kv, "K_x", f"{field}.K_x"), f"{field}.K_x")
        k_zeta = _parse_matrix(need(kv, "K_zeta", f"{field}.K_zeta"),
                               f"{field}.K_zeta")
        g1 = _parse_matrix(kv["G1"][0], f"{field}.G1") if "G1" in kv else None
        g2 = _parse_matrix(kv["G2"][0], f"{field}.G2") if "G2" in kv else None
        if (g1 is None) != (g2 is None):
            raise ValidationError(field, "supply G1 and G2 together")
        if not is_static(nodes[i - 1]):
            n, m = nodes[i - 1].B.shape
            c = p_dim * s_mat.shape[0] if g1 is None else g1.shape[0]
            for key, mat, want in (("G1", g1, (c, c)), ("G2", g2, (c, p_dim)),
                                   ("K_zeta", k_zeta, (m, c)),
                                   ("K_x", k_x, (m, n))):
                if mat is not None and mat.shape != want:
                    raise ValidationError(f"{field}.{key}",
                                          f"shape {mat.shape}, want {want}")
        gains[i] = NodeGains(K_x=k_x, K_zeta=k_zeta, G1=g1, G2=g2)

    nu0, eta0, etabar0 = {}, {}, {}
    if refs_kv:
        for key, (value, ln) in refs_kv.items():
            m = _REF_RE.match(key)
            if not m:
                raise ParseError(ln, f"unknown reference key {key!r}")
            kind, idx = m.group(1), int(m.group(2))
            if not 1 <= idx <= n_nodes:
                raise ValidationError(f"references.{key}", "unknown node")
            vec = _parse_matrix(value, f"references.{key}").ravel()
            {"nu": nu0, "eta": eta0, "etabar": etabar0}[kind][idx] = vec

    sim = {"dt": 1e-3, "t_end": 1.0}
    for key, (value, _) in (sim_kv or {}).items():
        sim[key] = _parse_number(value, f"simulation.{key}")

    scn = Scenario(
        name=name, nodes=tuple(nodes), edges=tuple(edges),
        edge_ends=tuple(edge_ends), S=s_mat, Q_eta=q_eta, Q_v=q_v,
        P_eta=p_eta, regime=regime, roles=roles, gains=gains, eps=eps,
        nu0=nu0, eta0=eta0, etabar0=etabar0, **sim).validate()

    if topo_kv and "H" in topo_kv:
        h = _parse_matrix(topo_kv["H"][0], "topology.H")
        validate_incidence(h)
        built = scn.topology().H
        if h.shape != built.shape or np.abs(h - built).max() > 0:
            raise ValidationError(
                "topology.H", "explicit H disagrees with the edge list")
    return scn


def format_config(scn):
    """Emit config text that parses back to an equal scenario."""
    lines = ["[scenario]", f"name = {scn.name}", f"regime = {scn.regime}",
             f"eps = {scn.eps:.17g}"]
    if scn.roles:
        roles = " ".join(f"{i}:{r}" for i, r in sorted(scn.roles.items()))
        lines.append(f"roles = {roles}")
    lines += ["", "[exosystem]", f"S = {_format_matrix(scn.S)}",
              f"Q_eta = {_format_matrix(scn.Q_eta)}",
              f"Q_v = {_format_matrix(scn.Q_v)}"]
    if scn.P_eta is not None:
        lines.append(f"P_eta = {_format_matrix(scn.P_eta)}")
    for i, node in enumerate(scn.nodes, start=1):
        lines += ["", f"[node {i}]"]
        if is_static(node):
            lines.append("ground = true")
            continue
        lines += [f"A = {_format_matrix(node.A)}",
                  f"B = {_format_matrix(node.B)}",
                  f"C = {_format_matrix(node.C)}",
                  f"D = {_format_matrix(node.D_in)}"]
    for i in sorted(scn.gains):
        g = scn.gains[i]
        lines += ["", f"[controller {i}]",
                  f"K_x = {_format_matrix(g.K_x)}",
                  f"K_zeta = {_format_matrix(g.K_zeta)}"]
        if g.G1 is not None:
            lines += [f"G1 = {_format_matrix(g.G1)}",
                      f"G2 = {_format_matrix(g.G2)}"]
    for j, (edge, (a, b)) in enumerate(zip(scn.edges, scn.edge_ends),
                                       start=1):
        lines += ["", f"[edge {j} from={a} to={b}]",
                  f"E = {_format_matrix(edge.A)}",
                  f"F = {_format_matrix(edge.B)}",
                  f"G = {_format_matrix(edge.C)}"]
    refs = []
    for kind, table in (("nu", scn.nu0), ("eta", scn.eta0),
                        ("etabar", scn.etabar0)):
        for i in sorted(table):
            refs.append(f"{kind}{i} = {_format_matrix(table[i])}")
    if refs:
        lines += ["", "[references]"] + refs
    lines += ["", "[simulation]", f"dt = {scn.dt:.17g}",
              f"t_end = {scn.t_end:.17g}"]
    return "\n".join(lines) + "\n"
