"""JSON artifacts: each is encoded once, by json's C encoder, on one line."""

from __future__ import annotations

import json


def write_json(path, payload: dict, config_hash: str | None = None) -> dict:
    """Write payload compact (any `indent` selects json's Python encoder),
    config_hash its last key when given (the run's stamp); returns it unstamped."""
    stamped = payload if config_hash is None else {**payload, "config_hash": config_hash}
    with open(path, "w") as fh:
        fh.write(json.dumps(stamped))
    return payload
