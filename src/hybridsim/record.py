"""The base of the package's frozen records.

It stands in for the standard library's `dataclass` decorator, whose module
pulls in `inspect`, `ast` and `dis` on import, and which generates and execs
each record's methods at every import: together about twice the time of one
preset run, paid by every CLI call.
"""

from __future__ import annotations


class Record:
    """A frozen record. A subclass declares its fields as annotations, in
    order, each with its default as the class attribute if it has one.

    `fields` maps each field's name to its annotation string. A record takes
    its fields by position or keyword, runs `_validate` once they are set,
    compares and hashes by value, and refuses assignment and deletion.
    `replace(**changes)` builds a changed copy through the same checks, and
    `to_dict()` a dict of the fields, each nested record as its own dict.
    Fields are plain instance attributes, so a read costs what any does.
    """

    __slots__ = ()
    fields: dict[str, str] = {}
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.fields = dict(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls.fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        given = dict(zip(cls.fields, args))
        if len(args) > len(cls.fields) or any(name in given for name in kwargs):
            raise TypeError(f"{cls.__name__} takes at most its {len(cls.fields)} "
                            "fields, each once")
        values = {**cls._defaults, **given, **kwargs}
        set_field = object.__setattr__
        for name in cls.fields:
            if name not in values:
                raise TypeError(f"{cls.__name__} needs the field {name!r}")
            set_field(self, name, values.pop(name))
        if values:
            raise TypeError(f"{cls.__name__} has no field {next(iter(values))!r}")
        self._validate()

    def _validate(self) -> None:
        """Raise if the fields do not make a valid record."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes) -> Record:
        return type(self)(**{**dict(zip(self.fields, self._values())), **changes})

    def to_dict(self) -> dict:
        return {name: value.to_dict() if isinstance(value, Record) else value
                for name, value in zip(self.fields, self._values())}
