"""Exception types and the log shared across the package."""

import os
import sys

# The levels of the ``logging`` module, which is imported only for a message
# that passes the threshold: importing it costs a few milliseconds per run.
_LEVELS = {"error": 40, "warn": 30, "info": 20, "debug": 10}
_WARNING = _LEVELS["warn"]
_FORMAT = "%(levelname)s %(name)s: %(message)s"

# Until ``logging`` is imported nothing can have configured it, so its root
# logger drops a message below WARNING; ``configure_log`` sets the level of
# ``RVAFT_LOG`` instead, for the ``logging.basicConfig`` made at the first
# message that passes it.
_threshold = _WARNING
_pending_config = None


def configure_log():
    """The command line's log setup: messages at or above ``RVAFT_LOG``'s
    level (``error``, ``warn``, ``info`` or ``debug``; ``warn`` by default)
    go to stderr as ``LEVEL logger: message``."""
    global _threshold, _pending_config
    _threshold = _LEVELS.get(os.environ.get("RVAFT_LOG", "warn").lower(), _WARNING)
    _pending_config = _threshold


class Log:
    """The ``info`` and ``warning`` of a ``logging`` logger named ``name``,
    which import ``logging`` only for a message that it would not drop."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def info(self, msg, *args):
        self._emit(_LEVELS["info"], msg, args)

    def warning(self, msg, *args):
        self._emit(_WARNING, msg, args)

    def _emit(self, level, msg, args):
        global _pending_config
        logging = sys.modules.get("logging")
        if logging is None:
            if level < _threshold:
                return
            import logging
        if _pending_config is not None:
            logging.basicConfig(level=_pending_config, format=_FORMAT)
            _pending_config = None
        logging.getLogger(self.name).log(level, msg, *args)


class RvaftError(Exception):
    """Base class for all errors raised by this package."""


class UnknownNodeError(RvaftError):
    def __init__(self, node_id):
        super().__init__(f"unknown node: {node_id!r}")
        self.node_id = node_id


class RootRemovalError(RvaftError):
    def __init__(self, node_id):
        super().__init__(f"cannot prune the root node {node_id!r}")
        self.node_id = node_id


class RootAnnotationError(RvaftError):
    def __init__(self, node_id):
        super().__init__(f"the root node {node_id!r} never carries an event annotation")
        self.node_id = node_id


class InvalidKError(RvaftError):
    def __init__(self, k, n):
        super().__init__(f"voting threshold k={k} outside 1..{n}")
        self.k = k
        self.n = n


class UnclassifiedBranchError(RvaftError):
    def __init__(self, path):
        super().__init__(f"branch {list(path)} has no fault or attack leaf")
        self.path = tuple(path)


class UnknownPropertyError(RvaftError):
    def __init__(self, name):
        super().__init__(f"no such property: {name!r}")
        self.name = name


class TypeMismatchError(RvaftError):
    """A guard combined values of incompatible types."""


class UnboundVariableError(RvaftError):
    def __init__(self, name):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class GuardParseError(RvaftError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TreeParseError(RvaftError):
    """The tree document was not syntactically valid."""


class SchemaError(RvaftError):
    """The tree document was valid JSON but violated the document schema."""
