"""Interface-definition (IDL) layer tests."""

import dataclasses

import pytest

from repro.errors import BadOperation, IdlError
from repro.orb.idl import (InterfaceBuilder, InterfaceDef,
                           InterfaceRepository, OperationDef, ParameterDef)


class TestBuilder:
    def test_repository_id_format(self):
        interface = InterfaceBuilder("CoDatabase", module="webfindit",
                                     version="1.0").build()
        assert interface.repository_id == "IDL:webfindit/CoDatabase:1.0"

    def test_operations_registered(self):
        interface = (InterfaceBuilder("X")
                     .operation("a", "p1", "p2")
                     .operation("b", oneway=True)
                     .build())
        assert interface.operation("a").arity == 2
        assert interface.operation("b").oneway

    def test_duplicate_operation_rejected(self):
        with pytest.raises(IdlError):
            InterfaceBuilder("X").operation("a").operation("a")

    def test_invalid_name_rejected(self):
        with pytest.raises(IdlError):
            InterfaceBuilder("1bad")

    def test_unknown_operation_raises(self):
        interface = InterfaceBuilder("X").operation("a").build()
        with pytest.raises(BadOperation):
            interface.operation("b")


class TestInheritance:
    def test_all_operations_merges(self):
        base = InterfaceBuilder("Base").operation("ping").build()
        child = (InterfaceBuilder("Child").operation("pong")
                 .extends(base).build())
        assert set(child.all_operations()) == {"ping", "pong"}

    def test_own_definition_wins(self):
        base = InterfaceBuilder("Base").operation("op", "a").build()
        child = (InterfaceBuilder("Child").operation("op", "a", "b")
                 .extends(base).build())
        assert child.operation("op").arity == 2

    def test_operation_found_through_bases(self):
        base = InterfaceBuilder("Base").operation("ping").build()
        child = InterfaceBuilder("Child").extends(base).build()
        assert child.operation("ping").name == "ping"


class TestImmutability:
    """An ORB compiles operation tables from an interface once (the
    skeleton at activation, the stub's oneway table at proxy creation);
    a mutable interface could leave them stale."""

    def test_an_interface_cannot_be_changed_after_build(self):
        base = InterfaceBuilder("Base").operation("ping").build()
        interface = (InterfaceBuilder("X").operation("a", "p")
                     .extends(base).build())
        with pytest.raises(TypeError):
            interface.operations["b"] = OperationDef("b")
        with pytest.raises(TypeError):
            del interface.operations["a"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            interface.operations = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            interface.bases = ()
        assert set(interface.all_operations()) == {"a", "ping"}

    def test_the_builders_table_is_copied(self):
        table = {"a": OperationDef("a")}
        interface = InterfaceDef(name="X", repository_id="IDL:X:1.0",
                                 operations=table)
        table["b"] = OperationDef("b")
        assert set(interface.operations) == {"a"}


class TestServantValidation:
    def test_complete_servant_accepted(self):
        interface = InterfaceBuilder("X").operation("go").build()

        class Ok:
            def go(self):
                return 1

        interface.validate_servant(Ok())

    def test_missing_method_rejected(self):
        interface = InterfaceBuilder("X").operation("go").build()
        with pytest.raises(IdlError) as excinfo:
            interface.validate_servant(object())
        assert "go" in str(excinfo.value)

    def test_non_callable_attribute_rejected(self):
        interface = InterfaceBuilder("X").operation("go").build()

        class Bad:
            go = 42

        with pytest.raises(IdlError):
            interface.validate_servant(Bad())


class TestRepository:
    def test_register_and_lookup(self):
        repository = InterfaceRepository()
        interface = InterfaceBuilder("X").build()
        repository.register(interface)
        assert repository.lookup(interface.repository_id) is interface
        assert interface.repository_id in repository
        assert len(repository) == 1

    def test_same_interface_idempotent(self):
        repository = InterfaceRepository()
        interface = InterfaceBuilder("X").build()
        repository.register(interface)
        repository.register(interface)
        assert len(repository) == 1

    def test_conflicting_registration_rejected(self):
        repository = InterfaceRepository()
        repository.register(InterfaceBuilder("X").build())
        with pytest.raises(IdlError):
            repository.register(InterfaceBuilder("X").build())

    def test_lookup_unknown(self):
        with pytest.raises(IdlError):
            InterfaceRepository().lookup("IDL:ghost:1.0")
