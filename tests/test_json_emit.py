"""The CLI's JSON writer (``cli._json``, through ``cli._emit``) against
``json.dumps(value, indent=2, sort_keys=True)``, the reference it must equal
byte for byte: on every handler payload the CLI tests reach, and on seeded
random nested values built to hit every branch of the encoder."""

from __future__ import annotations

import json
import math
import random

from test_cli import _handler_cases

from latroids import cli


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def test_handler_payloads_are_written_as_json_dumps_writes_them(tmp_path, capsys):
    cases = [
        (command, name, getattr(cli, "cmd_" + command.replace("-", "_")), cfg)
        for command, name, cfg in _handler_cases(tmp_path)
    ]
    cases.append(("selftest", None, cli.cmd_selftest, {"gen": [], "mat": []}))
    for command, name, handler, cfg in cases:
        data, _ = handler(cfg, cli.VECTOR_ENUM_CAP)
        payload = {"schema_version": cli.SCHEMA_VERSION, "command": command, "ok": True, **data}
        cli._emit(payload, "json", None)
        assert capsys.readouterr().out == reference(payload) + "\n", (command, name)


# Characters a string is drawn from: quotes and backslashes, every control
# character, DEL, non-ASCII, astral characters and lone surrogates.
CHARS = (
    ['"', "\\", "/", " ", "a", "Z", "0", ":", "{", "]", ","]
    + [chr(c) for c in range(32)]
    + ["\x7f", "\x80", "é", "ß", " ", "中", "﻿", "\ud800", "\udfff"]
    + ["\U0001f600", "\U00010000", "\U0010ffff"]
)
FLOATS = (0.0, -0.0, 1.5, -2.25, 1e300, -1e-300, 5e-324, 0.1, math.pi,
          float("nan"), float("inf"), float("-inf"))


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_int(rng: random.Random) -> int:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(-10, 10)
    if kind == 1:
        return rng.randrange(-(2**31), 2**31)
    sign = rng.choice((1, -1))
    return sign * (2**64 + rng.randrange(2**70)) if kind == 2 else sign * 2 ** rng.randrange(64, 200)


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(10 if depth < 4 else 5)
    if kind == 0:
        return random_string(rng)
    if kind == 1:
        return random_int(rng)
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.choice(FLOATS)
    if kind == 4:
        # ints and bools side by side: a bool must not take the int-list path
        return [rng.choice((random_int(rng), True, False)) for _ in range(rng.randrange(4))]
    if kind == 5:
        return [random_int(rng) for _ in range(rng.randrange(5))]
    if kind == 6:
        return tuple(random_value(rng, depth + 1) for _ in range(rng.randrange(4)))
    if kind == 7:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {random_string(rng): random_value(rng, depth + 1) for _ in range(rng.randrange(5))}


def test_random_values_are_written_as_json_dumps_writes_them():
    rng = random.Random(20250304)
    values = [random_value(rng) for _ in range(12000)]
    values += [[], {}, (), [[]], {"": {}}, [()], "", [1, True], [True, 1], (1, 2)]
    for value in values:
        assert cli._json(value, "") == reference(value), repr(value)
    # the corpus holds each kind of value the writer treats apart
    seen = set()

    def walk(value):
        if isinstance(value, (list, tuple)):
            seen.add("int list" if value and all(type(v) is int for v in value) else "list")
            seen.update({"empty"} if not value else set())
            for v in value:
                walk(v)
        elif isinstance(value, dict):
            seen.add("dict")
            for k, v in value.items():
                seen.update({"escaped key"} if json.dumps(k) != f'"{k}"' else set())
                walk(v)
        elif isinstance(value, float):
            seen.add("nan" if math.isnan(value) else "inf" if math.isinf(value) else "float")
        elif isinstance(value, bool) or value is None:
            seen.add("bool/None")
        elif isinstance(value, int):
            seen.add("big int" if abs(value) >= 2**64 else "int")
        else:
            seen.add("astral str" if any(ord(c) > 0xFFFF for c in value) else "str")

    for value in values:
        walk(value)
    assert seen == {
        "int list", "list", "empty", "dict", "escaped key", "nan", "inf", "float",
        "bool/None", "big int", "int", "astral str", "str",
    }
