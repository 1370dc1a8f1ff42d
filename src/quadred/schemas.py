"""JSON Schemas for the machine-readable outputs.

Consumers of ``verify --format json`` and ``list --format json`` can
validate against these; the test suite does.
"""

from .catalog import Family

_COMPLEX = {
    "type": "object",
    "properties": {"re": {"type": "number"}, "im": {"type": "number"}},
    "required": ["re", "im"],
    "additionalProperties": False,
}

_NUMBER_OR_COMPLEX = {"oneOf": [{"type": "number"}, _COMPLEX]}

_QUAD_RESULT = {
    "type": "object",
    "properties": {
        "value": _NUMBER_OR_COMPLEX,
        "abs_error_estimate": {"type": "number"},
        "evaluations": {"type": "integer", "minimum": 0},
        "converged": {"type": "boolean"},
    },
    "required": ["value", "abs_error_estimate", "evaluations", "converged"],
    "additionalProperties": False,
}

_TOL = {
    "type": "object",
    "properties": {"rel": {"type": "number"}, "abs": {"type": "number"}},
    "required": ["rel", "abs"],
    "additionalProperties": False,
}

RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "quadred verification record",
    "type": "object",
    "properties": {
        "rule_id": {"type": "string"},
        "params": {
            "type": "object",
            "properties": {
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
            },
            "required": ["n", "m", "nu", "a", "b", "c", "h", "j", "p", "q"],
            "additionalProperties": False,
        },
        "f": {
            "type": "object",
            "properties": {
                "coeff": {"type": "number"},
                "mu": {"type": "number"},
                "sigma": {"type": "number"},
            },
            "required": ["coeff", "mu", "sigma"],
            "additionalProperties": False,
        },
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
    },
    "required": [
        "rule_id", "params", "f", "lhs", "rhs", "abs_diff", "rel_diff",
        "tol", "pass", "trusted", "seed", "case_index", "failure_reason",
    ],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "quadred verification report",
    "type": "object",
    "properties": {
        "seed": {"type": "integer"},
        "samples": {"type": "integer", "minimum": 1},
        "tol": _TOL,
        "summary": {
            "type": "object",
            "properties": {
                "pass": {"type": "integer", "minimum": 0},
                "fail_trusted": {"type": "integer", "minimum": 0},
                "flagged": {"type": "integer", "minimum": 0},
                "total": {"type": "integer", "minimum": 0},
            },
            "required": ["pass", "fail_trusted", "flagged", "total"],
            "additionalProperties": False,
        },
        "records": {"type": "array", "items": RECORD_SCHEMA},
    },
    "required": ["seed", "samples", "tol", "summary", "records"],
    "additionalProperties": False,
}

RULE_DESCRIPTOR_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "quadred rule descriptor",
    "type": "object",
    "properties": {
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
    },
    "required": [
        "id", "family", "triple", "coefficient_pattern", "description",
        "erratum", "trusted", "note",
    ],
    "additionalProperties": False,
}
