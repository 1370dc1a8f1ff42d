"""JSON Schemas for the machine-readable outputs.

Consumers of ``verify --format json`` and ``list --format json`` can
validate against these; the test suite does.
"""

from .catalog import Family

_DRAFT = "https://json-schema.org/draft/2020-12/schema"


def _object(properties: dict) -> dict:
    """An object schema that requires each key of properties and allows no other."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


_COMPLEX = _object({"re": {"type": "number"}, "im": {"type": "number"}})

_NUMBER_OR_COMPLEX = {"oneOf": [{"type": "number"}, _COMPLEX]}

_QUAD_RESULT = _object({
    "value": _NUMBER_OR_COMPLEX,
    "abs_error_estimate": {"type": "number"},
    "evaluations": {"type": "integer", "minimum": 0},
    "converged": {"type": "boolean"},
})

_TOL = _object({"rel": {"type": "number"}, "abs": {"type": "number"}})

RECORD_SCHEMA = {
    "$schema": _DRAFT,
    "title": "quadred verification record",
    **_object({
        "rule_id": {"type": "string"},
        "params": _object({
            "n": {"type": "integer"},
            "m": {"type": "integer"},
            "nu": {"type": "integer"},
            "a": {"type": "number"},
            "b": {"type": "number"},
            "c": {"type": "number"},
            "h": _COMPLEX,
            "j": {"type": "number"},
            "p": {"type": "number"},
            "q": {"type": "number"},
        }),
        "f": _object({
            "coeff": {"type": "number"},
            "mu": {"type": "number"},
            "sigma": {"type": "number"},
        }),
        "lhs": {"oneOf": [_QUAD_RESULT, {"type": "null"}]},
        "rhs": {"oneOf": [_QUAD_RESULT, {"type": "null"}]},
        "abs_diff": {"type": ["number", "null"]},
        "rel_diff": {"type": ["number", "null"]},
        "tol": _TOL,
        "pass": {"type": "boolean"},
        "trusted": {"type": "boolean"},
        "seed": {"type": ["integer", "null"]},
        "case_index": {"type": ["integer", "null"]},
        "failure_reason": {"type": ["string", "null"]},
    }),
}

REPORT_SCHEMA = {
    "$schema": _DRAFT,
    "title": "quadred verification report",
    **_object({
        "seed": {"type": "integer"},
        "samples": {"type": "integer", "minimum": 1},
        "tol": _TOL,
        "summary": _object({
            "pass": {"type": "integer", "minimum": 0},
            "fail_trusted": {"type": "integer", "minimum": 0},
            "flagged": {"type": "integer", "minimum": 0},
            "total": {"type": "integer", "minimum": 0},
        }),
        "records": {"type": "array", "items": RECORD_SCHEMA},
    }),
}

RULE_DESCRIPTOR_SCHEMA = {
    "$schema": _DRAFT,
    "title": "quadred rule descriptor",
    **_object({
        "id": {"type": "string"},
        "family": {"enum": [family.value for family in Family]},
        "triple": {
            "oneOf": [
                {"type": "array", "items": {"type": "integer"},
                 "minItems": 3, "maxItems": 3},
                {"type": "null"},
            ]
        },
        "coefficient_pattern": {"type": "array", "items": {"type": "string"}},
        "description": {"type": "string"},
        "erratum": {"type": "boolean"},
        "trusted": {"type": "boolean"},
        "note": {"type": "string"},
    }),
}
