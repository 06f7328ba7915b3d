"""leapjoin: incrementally maintained join views over versioned relations."""

from .driver import MaintenanceReport, RuleInstance, bootstrap, build_oracle, maintain
from .errors import EngineError, IntegrityError, UserError
from .keys import KEY_MAX, KEY_MIN
from .lftj import evaluate
from .parser import parse_rule
from .rules import classify_variables, is_projection_free, validate_key_order
from .store import Relation, delta_iter, surgery_iter
from .trace import trace_distance

__all__ = [
    "EngineError",
    "IntegrityError",
    "UserError",
    "KEY_MIN",
    "KEY_MAX",
    "Relation",
    "delta_iter",
    "surgery_iter",
    "parse_rule",
    "classify_variables",
    "is_projection_free",
    "validate_key_order",
    "evaluate",
    "trace_distance",
    "RuleInstance",
    "MaintenanceReport",
    "bootstrap",
    "build_oracle",
    "maintain",
]
