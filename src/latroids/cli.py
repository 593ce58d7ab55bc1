"""Batch command-line front end.

Problems are described by flat key=value config files (``#`` comments,
repeated ``gen=`` / ``mat=`` lines for matrix rows); results are emitted as
JSON or text reports.  Exit codes: 0 success, 1 a checked property failed,
2 bad input, 3 a size cap was exceeded.

``main`` may be called many times in one process (by tests, by scripts that
check many codes).  Its argument parser is built once per process, on the
first call, and never at import.  Each ``cmd_*`` handler returns plain JSON
values (dicts with str keys, lists, str, int, float, bool, None), so the
payload goes to ``_emit`` as it is and is serialized once, there, by
``_json``: json's C encoder skips every ``indent`` call, so the indented
report is written by one short exact pass instead.  Lattice labels are read
from the lattice's kept ``label_texts``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from json import JSONEncoder
from json.encoder import encode_basestring_ascii

import numpy as np

from .code_latroids import (
    block_matroid,
    chain_support_latroid,
    code_gen_weights_dbar,
    code_gen_weights_dr,
    latroid_from_code,
    latroid_gen_weights,
    rect_supp_latroid,
    weights_equal_report,
)
from .codes import Code, span
from .core import (
    axioms_B,
    axioms_C,
    axioms_I,
    bases,
    circuits,
    independents,
    rank_from_bases,
    rank_from_circuits,
    rank_from_independents,
    validate_latroid,
)
from .enumerators import (
    enumerator_from_tutte,
    pir_tutte_corollary,
    refined_enumerator,
    rprime_z_to_one,
    tutte_whitney_Rprime,
)
from .errors import CapExceededError
from .isometries import (
    decompose_chain_isometry,
    equivalence_invariance_check,
    is_isometry,
    pir_isometry_projections,
)
from .limits import VECTOR_ENUM_CAP
from .rings import Element, Pir, parse_ring
from .selftest import run_all
from .supports import (
    ChainSupport,
    HammingSupport,
    ProductSupport,
    Support,
    TableSupport,
    validate_modular,
    validate_support,
)

SCHEMA_VERSION = 1

COMMANDS = (
    "validate-support",
    "latroid",
    "axioms",
    "crypto-roundtrip",
    "weights",
    "enumerator",
    "tutte",
    "circuits",
    "isometry",
    "selftest",
)


class InputError(ValueError):
    pass


# -- config ---------------------------------------------------------------------


def parse_config(path: str) -> dict:
    """key=value lines; ``gen`` and ``mat`` may repeat and collect rows."""
    out: dict = {"gen": [], "mat": []}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise InputError(f"cannot read config {path}: {e}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in ("gen", "mat"):
            out[key].append(value.replace(",", " ").split())
        else:
            out[key] = value
    return out


def _integer(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"entry {token!r} is not an integer") from None


def parse_entry(ring: Pir, token: str) -> Element:
    """An integer (reduced mod every factor) or colon-joined residues."""
    if ":" in token:
        parts = token.split(":")
        if len(parts) != ring.ell:
            raise InputError(f"entry {token!r} needs {ring.ell} residues")
        return tuple(_integer(p) % s for p, s in zip(parts, ring.sizes))
    return ring.from_int(_integer(token))


def parse_support(ring: Pir, n: int, spec: str) -> Support:
    spec = spec.strip()
    if spec == "hamming":
        return HammingSupport(ring, n)
    if spec == "chain":
        return ChainSupport(ring, n)
    if spec.startswith("product[") and spec.endswith("]"):
        names = [p.strip() for p in spec[len("product[") : -1].split(",")]
        if len(names) != n:
            raise InputError(f"product support needs {n} parts, got {len(names)}")
        parts = [parse_support(ring, 1, name) for name in names]
        return ProductSupport(ring, parts)
    if spec.startswith("table:"):
        return _support_from_file(ring, n, spec[len("table:") :])
    raise InputError(f"unknown support spec {spec!r}")


def _support_from_file(ring: Pir, n: int, path: str) -> Support:
    """Lines of the form ``v1 .. vn -> s1 .. su`` listing each vector of R^n
    once (entries are reduced first, so ``4`` and ``0`` are one vector of
    Z_4)."""
    table, linenos = {}, {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise InputError(f"cannot read support table {path}: {e}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "->" not in line:
                raise InputError("expected 'v -> s'")
            left, _, right = line.partition("->")
            v = tuple(parse_entry(ring, t) for t in left.split())
            if len(v) != n:
                raise InputError(f"vector needs {n} entries")
            if v in table:
                raise InputError(f"vector {v} already given on line {linenos[v]}")
            table[v], linenos[v] = tuple(_integer(t) for t in right.split()), lineno
        except InputError as e:
            raise InputError(f"{path}:{lineno}: {e}") from None
    return TableSupport(ring, n, table)


def _require(cfg: dict, *keys):
    for key in keys:
        if key not in cfg:
            raise InputError(f"config needs {key}=")


def _parse_n(cfg: dict) -> int:
    """The ambient length n, an integer >= 1."""
    try:
        n = int(cfg["n"])
    except ValueError:
        n = 0
    if n < 1:
        raise InputError(f"n must be an integer >= 1, got {cfg['n']!r}")
    return n


def load_problem(cfg: dict, cap: int):
    _require(cfg, "ring", "n")
    ring = parse_ring(cfg["ring"])
    n = _parse_n(cfg)
    gens = [
        tuple(parse_entry(ring, t) for t in row) for row in cfg["gen"]
    ]
    for g in gens:
        if len(g) != n:
            raise InputError(f"generator {g} does not have length {n}")
    code = span(ring, n, gens, cap=cap)
    spec = cfg.get("support", "chain")
    supp = parse_support(ring, n, spec)
    if "table:" in spec:
        # a table from a file is the one support not correct by construction
        axioms = validate_support(supp, cap=cap)
        if not axioms.ok:
            raise InputError(f"not a support: {axioms.summary()}")
    return ring, n, code, supp


def build_latroid(cfg: dict, code: Code, supp: Support):
    kind = cfg.get("lattice", "chain-support")
    if kind == "chain-support":
        return chain_support_latroid(code)
    if kind == "submodule":
        return latroid_from_code(code)
    if kind == "rect":
        return rect_supp_latroid(code, supp)
    if kind == "block":
        return block_matroid(code)
    raise InputError(f"unknown lattice kind {kind!r}")


# -- serialization ----------------------------------------------------------------


def jsonable(value):
    """Nested tuples and lists (a ring matrix, whose entries are tuples of
    residues) as nested lists, so that JSON and the text report render them
    alike; any other value as it is.  Handlers call it on the matrices they
    return: every other value they return is already plain JSON."""
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def _json(value, pad: str) -> str:
    """What the stdlib's ``dumps(value, indent=2, sort_keys=True)`` writes,
    for plain JSON values with str keys, nested ``pad`` deep: json's C
    encoder serves only ``indent=None``, so the indented report would go
    through its pure-Python encoder.  Strings go through json's own escaper,
    a list of plain ints is one join, and every other scalar (bool, None,
    float, NaN, inf) is written by the stdlib encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if all(type(v) is int for v in value):
            items = map(str, value)
        else:
            items = [_json(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return JSONEncoder().encode(value)


def render_text(data, indent: str = "") -> str:
    lines = []
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{indent}{key}:")
                lines.append(render_text(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_flat(value)}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{indent}-")
                lines.append(render_text(value, indent + "  "))
            else:
                lines.append(f"{indent}- {_flat(value)}")
    else:
        lines.append(f"{indent}{_flat(data)}")
    return "\n".join(lines)


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


# -- commands --------------------------------------------------------------------


def cmd_validate_support(cfg, cap):
    _require(cfg, "ring", "n", "support")
    ring = parse_ring(cfg["ring"])
    supp = parse_support(ring, _parse_n(cfg), cfg["support"])
    axioms = validate_support(supp, cap=cap)
    modular = validate_modular(supp, cap=cap)
    data = {
        "valid": axioms.ok,
        "modular": modular.ok,
        "axioms": axioms.to_dict(),
        "modularity": modular.to_dict(),
    }
    return data, 0 if axioms.ok else 1


def cmd_latroid(cfg, cap):
    ring, n, code, supp = load_problem(cfg, cap)
    lt = build_latroid(cfg, code, supp)
    report = validate_latroid(lt)
    data = {
        "lattice_size": lt.lattice.size,
        "scalar_dim": lt.udim,
        "report": report.to_dict(),
        "elements": [
            {"label": text, "rank": rank, "length": length}
            for text, rank, length in zip(
                lt.lattice.label_texts, lt.rank.tolist(), lt.length.tolist()
            )
        ],
    }
    return data, 0 if report.ok else 1


def cmd_axioms(cfg, cap):
    ring, n, code, supp = load_problem(cfg, cap)
    lt = build_latroid(cfg, code, supp)
    lat = lt.lattice
    I, B, C = independents(lt), bases(lt), circuits(lt)
    reports = {
        "independents": axioms_I(lat, I),
        "bases": axioms_B(lat, B),
        "circuits": axioms_C(lat, C),
    }
    texts = lat.label_texts
    data = {
        "independents": [texts[i] for i in I],
        "bases": [texts[i] for i in B],
        "circuits": [texts[i] for i in C],
        "reports": {k: r.to_dict() for k, r in reports.items()},
    }
    return data, 0 if all(r.ok for r in reports.values()) else 1


def cmd_crypto_roundtrip(cfg, cap):
    ring, n, code, supp = load_problem(cfg, cap)
    lt = build_latroid(cfg, code, supp)
    lat = lt.lattice
    if not lt.uses_height_length():
        raise InputError("round trips need the height function as length")
    results = {}
    ok = True
    for tag, rebuilt in (
        ("from_independents", rank_from_independents(lat, independents(lt))),
        ("from_bases", rank_from_bases(lat, bases(lt))),
        ("from_circuits", rank_from_circuits(lat, circuits(lt))),
    ):
        same = np.array_equal(rebuilt.rank, lt.rank)
        results[tag] = same
        ok = ok and same
    return {"roundtrips": results, "ok": ok}, 0 if ok else 1


def _parse_r(cfg: dict) -> int | None:
    """The optional weight index r of the weights command."""
    if "r" not in cfg:
        return None
    try:
        return int(cfg["r"])
    except ValueError:
        raise InputError(f"r must be an integer, got {cfg['r']!r}") from None


def _entry(weights: list[int], r: int | None):
    """The full list of generalized weights, or d_r alone when r is set."""
    if r is None:
        return weights
    if not 1 <= r <= len(weights):
        raise InputError(f"r = {r} outside [1, {len(weights)}]")
    return weights[r - 1]


def cmd_weights(cfg, cap):
    ring, n, code, supp = load_problem(cfg, cap)
    r = _parse_r(cfg)
    dbar = code_gen_weights_dbar(code, supp)
    data = {"dbar": _entry(dbar, r), "dmu": _entry(code_gen_weights_dr(code, supp), r)}
    if not isinstance(supp, ChainSupport):
        return data, 0
    data["latroid"] = latroid_gen_weights(code)
    rep = weights_equal_report("dbar", "dbar_equals_latroid", dbar, data["latroid"])
    data["latroid_equals_dbar"] = rep.ok
    return data, 0 if rep.ok else 1


def cmd_enumerator(cfg, cap):
    ring, n, code, supp = load_problem(cfg, cap)
    table = refined_enumerator(code, supp)
    refined = table.poly()
    data = {
        "refined": refined.to_json_dict(),
        "refined_rendered": refined.render(),
        "homogeneous": table.homogeneous().render(),
        "weight_distribution": table.weight_distribution(),
    }
    return data, 0


def cmd_tutte(cfg, cap):
    ring, n, code, supp = load_problem(cfg, cap)
    direct = refined_enumerator(code, ChainSupport(ring, n))
    if ring.ell != 1:
        rep = pir_tutte_corollary(code, direct)
        data = {
            "refined_rendered": direct.poly().render(),
            "factorization": rep.to_dict(),
        }
        return data, 0 if rep.ok else 1
    lt = chain_support_latroid(code)
    rprime = tutte_whitney_Rprime(lt)
    rgf = rprime_z_to_one(rprime, n)
    via_tutte = enumerator_from_tutte(lt, ring.factors[0].p)
    same = via_tutte == direct
    data = {
        "rank_generating_function": rgf.to_json_dict(),
        "rank_generating_function_rendered": rgf.render(),
        "rprime_rendered": rprime.render(),
        "enumerator_from_tutte": via_tutte.poly().render(),
        "refined_rendered": direct.poly().render(),
        "identity_holds": same,
    }
    return data, 0 if same else 1


def cmd_circuits(cfg, cap):
    ring, n, code, supp = load_problem(cfg, cap)
    lt = build_latroid(cfg, code, supp)
    texts = lt.lattice.label_texts
    data = {
        "independents": [texts[i] for i in independents(lt)],
        "bases": [texts[i] for i in bases(lt)],
        "circuits": [texts[i] for i in circuits(lt)],
    }
    return data, 0


def cmd_isometry(cfg, cap):
    ring, n, code, supp = load_problem(cfg, cap)
    if not cfg["mat"]:
        raise InputError("isometry command needs mat= rows")
    mat = tuple(
        tuple(parse_entry(ring, t) for t in row) for row in cfg["mat"]
    )
    if len(mat) != n or any(len(row) != n for row in mat):
        raise InputError(f"matrix must be {n}x{n}")
    iso = is_isometry(mat, supp, cap=cap)
    data = {"is_isometry": iso}
    if not iso:
        return data, 1
    if ring.ell == 1:
        D, P = decompose_chain_isometry(mat, supp)
        data["diagonal"] = jsonable(D)
        data["permutation"] = jsonable(P)
    else:
        projs = pir_isometry_projections(mat, supp)
        data["projections"] = [
            {"factor": i, "matrix": jsonable([[x[0] for x in row] for row in m])}
            for i, m in projs
        ]
    if len(code) > 1:
        rep = equivalence_invariance_check(code, mat, supp)
        data["invariance"] = rep.to_dict()
        return data, 0 if rep.ok else 1
    return data, 0


def cmd_selftest(cfg, cap, seed: int = 0):
    rows = []
    ok = True
    for num, title, rep in run_all(seed):
        rows.append(
            {
                "criterion": num,
                "title": title,
                "ok": rep.ok,
                "checks": len(rep.checks),
                "failures": [c.name for c in rep.failures()],
            }
        )
        ok = ok and rep.ok
    return {"criteria": rows, "ok": ok}, 0 if ok else 1


# -- driver -----------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latroids",
        description="Latroids, weight enumerators, and Tutte-Whitney "
        "identities for codes over chain rings and their products.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--config", help="problem config file (key=value lines)")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=int, default=0, help="seed for random corpora")
    parser.add_argument(
        "--cap",
        type=int,
        default=VECTOR_ENUM_CAP,
        help="cap on |C| for the span of the code, and on |R|^n for the support "
        "validators and the isometry check (acknowledges the cost); the other "
        "caps are the constants of latroids.limits",
    )
    return parser


def main(argv=None) -> int:
    """Run one command and write its report; returns the exit code.

    The parser is built on the first call and reused by every later call in
    the process.  The handler's data, already plain JSON values, is merged
    into the payload as it is and serialized once, by ``_emit``."""
    args = _parser().parse_args(argv)

    try:
        if args.command == "selftest":
            cfg = parse_config(args.config) if args.config else {"gen": [], "mat": []}
            data, code = cmd_selftest(cfg, args.cap, seed=args.seed)
        else:
            if not args.config:
                raise InputError(f"{args.command} needs --config")
            cfg = parse_config(args.config)
            handler = {
                "validate-support": cmd_validate_support,
                "latroid": cmd_latroid,
                "axioms": cmd_axioms,
                "crypto-roundtrip": cmd_crypto_roundtrip,
                "weights": cmd_weights,
                "enumerator": cmd_enumerator,
                "tutte": cmd_tutte,
                "circuits": cmd_circuits,
                "isometry": cmd_isometry,
            }[args.command]
            data, code = handler(cfg, args.cap)
    except CapExceededError as e:
        payload, code = {"error": str(e), "kind": "cap"}, 3
    except (InputError, ValueError, KeyError) as e:
        payload, code = {"error": str(e), "kind": "input"}, 2
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "ok": code == 0,
        }
        payload.update(data)

    try:
        _emit(payload, args.format, args.out)
    except OSError as e:
        error = f"cannot write --out {args.out}: {e.strerror or e}"
        _emit({"error": error, "kind": "input"}, args.format, None)
        return 2
    return code


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    """Write the report, already plain JSON values, to stdout, or atomically
    to the file ``out``; an OSError from the file leaves no temporary file
    behind."""
    if fmt == "json":
        text = _json(payload, "") + "\n"
    else:
        text = render_text(payload) + "\n"
    if out:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)) or ".")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
