"""SQL type coercion and built-in function tests."""

import datetime

import pytest

from repro.errors import SqlError, SqlTypeError
from repro.sql.engine import Database
from repro.sql.functions import AGGREGATE_FUNCTIONS, is_aggregate
from repro.sql.types import SqlType, coerce, comparable, infer_type

COUNT, SUM, AVG, MIN, MAX = (AGGREGATE_FUNCTIONS[name]
                             for name in ("COUNT", "SUM", "AVG", "MIN", "MAX"))


class TestCoercion:
    def test_null_passes_any_type(self):
        for sql_type in SqlType:
            assert coerce(None, sql_type) is None

    def test_int_widens_to_real(self):
        assert coerce(3, SqlType.REAL) == 3.0
        assert isinstance(coerce(3, SqlType.REAL), float)

    def test_exact_real_narrows_to_int(self):
        assert coerce(4.0, SqlType.INTEGER) == 4

    def test_inexact_real_to_int_rejected(self):
        with pytest.raises(SqlTypeError):
            coerce(4.5, SqlType.INTEGER)

    def test_string_to_number(self):
        assert coerce("17", SqlType.INTEGER) == 17
        assert coerce("2.5", SqlType.REAL) == 2.5

    def test_bad_string_to_number(self):
        with pytest.raises(SqlTypeError):
            coerce("abc", SqlType.INTEGER)

    def test_date_from_iso_string(self):
        assert coerce("1998-07-04", SqlType.DATE) == datetime.date(1998, 7, 4)

    def test_bad_date_rejected(self):
        with pytest.raises(SqlTypeError):
            coerce("04/07/1998", SqlType.DATE)

    def test_bool_coercions(self):
        assert coerce(1, SqlType.BOOLEAN) is True
        assert coerce("false", SqlType.BOOLEAN) is False
        with pytest.raises(SqlTypeError):
            coerce(7, SqlType.BOOLEAN)

    def test_number_to_text(self):
        assert coerce(12, SqlType.TEXT) == "12"

    def test_infer_type(self):
        assert infer_type(True) is SqlType.BOOLEAN
        assert infer_type(1) is SqlType.INTEGER
        assert infer_type(1.5) is SqlType.REAL
        assert infer_type("x") is SqlType.TEXT
        assert infer_type(datetime.date(1998, 1, 1)) is SqlType.DATE

    def test_comparable_rules(self):
        assert comparable(1, 2.5)
        assert comparable("a", "b")
        assert not comparable(1, "1")
        assert not comparable(True, 1)


class TestScalarFunctions:
    @pytest.fixture()
    def db(self):
        return Database("fn")

    def scalar(self, db, expression):
        return db.execute(f"SELECT {expression}").scalar()

    def test_string_functions(self, db):
        assert self.scalar(db, "UPPER('abc')") == "ABC"
        assert self.scalar(db, "LOWER('ABC')") == "abc"
        assert self.scalar(db, "LENGTH('hello')") == 5
        assert self.scalar(db, "SUBSTR('hello', 2, 3)") == "ell"
        assert self.scalar(db, "SUBSTR('hello', 3)") == "llo"
        assert self.scalar(db, "TRIM('  x  ')") == "x"
        assert self.scalar(db, "REPLACE('aXb', 'X', '-')") == "a-b"
        assert self.scalar(db, "INSTR('hello', 'll')") == 3
        assert self.scalar(db, "CONCAT('a', 'b', 'c')") == "abc"

    def test_numeric_functions(self, db):
        assert self.scalar(db, "ABS(-4)") == 4
        assert self.scalar(db, "ROUND(3.456, 2)") == pytest.approx(3.46)
        assert self.scalar(db, "FLOOR(3.9)") == 3
        assert self.scalar(db, "CEIL(3.1)") == 4
        assert self.scalar(db, "MOD(10, 3)") == 1

    def test_mod_by_zero(self, db):
        with pytest.raises(SqlError):
            self.scalar(db, "MOD(1, 0)")

    def test_null_handling_functions(self, db):
        assert self.scalar(db, "COALESCE(NULL, NULL, 3)") == 3
        assert self.scalar(db, "COALESCE(NULL, NULL)") is None
        assert self.scalar(db, "NULLIF(5, 5)") is None
        assert self.scalar(db, "NULLIF(5, 6)") == 5
        assert self.scalar(db, "IFNULL(NULL, 'x')") == "x"
        assert self.scalar(db, "NVL(NULL, 9)") == 9  # Oracle spelling

    def test_null_propagation(self, db):
        assert self.scalar(db, "UPPER(NULL)") is None
        assert self.scalar(db, "ABS(NULL)") is None

    def test_date_functions(self, db):
        assert self.scalar(db, "YEAR(DATE('1998-07-04'))") == 1998
        assert self.scalar(db, "MONTH(DATE('1998-07-04'))") == 7
        assert self.scalar(db, "DAY(DATE('1998-07-04'))") == 4

    def test_unknown_function(self, db):
        with pytest.raises(SqlError):
            self.scalar(db, "NOSUCHFN(1)")


class TestAggregateAccumulators:
    """The reducers each aggregate applies to one group's values."""

    def test_is_aggregate(self):
        assert is_aggregate("count") and is_aggregate("SUM")
        assert not is_aggregate("UPPER")

    def test_count_star_counts_everything(self):
        db = Database("agg")
        db.execute("CREATE TABLE t (x VARCHAR(5))")
        db.load_rows("t", [["1"], [None], ["x"]])
        assert db.execute("SELECT COUNT(*), COUNT(x) FROM t").rows == [(3, 2)]

    def test_count_skips_null(self):
        assert COUNT([1, None, 2]) == 2
        assert COUNT([1, None, 1], distinct=True) == 1

    def test_distinct_sum(self):
        assert SUM([5, 5, 3], distinct=True) == 8

    def test_sum_empty_is_null(self):
        assert SUM([]) is None and SUM([None, None]) is None

    def test_avg(self):
        assert AVG([2, 4, None]) == 3.0
        assert AVG([None]) is None

    def test_min_max(self):
        values = [3, 1, None, 2]
        assert MIN(values) == 1
        assert MAX(values) == 3
        assert MIN([None]) is None and MAX([]) is None
