"""Interpreter-version shims."""

import sys

#: ``@dataclass(**DATACLASS_SLOTS)`` gives a slotted dataclass (no
#: per-instance ``__dict__``) on Python 3.10+, where ``dataclass``
#: takes ``slots=``, and a plain one on 3.9.
DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}
