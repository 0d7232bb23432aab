"""Synthetic sample-data population for any catalog schema.

The paper's pipeline needs a database ``D`` that "describes the schema
and contains some sample data" (§3.3): sample values feed the value
index used for constant anonymization, the equivalence oracle's
execution probes, and the optimizer's test workloads.  Real deployments
hand DBPal their production tables; here we synthesize plausible values
per column using name/domain heuristics, deterministically from a seed.
"""

from __future__ import annotations

import numpy as np

from repro.db.storage import Database
from repro.schema.column import Column, ColumnType
from repro.schema.schema import Schema
from repro.schema.table import Table

# ----------------------------------------------------------------------
# Value pools
# ----------------------------------------------------------------------

FIRST_NAMES = (
    "alice bob carol david emma frank grace henry irene jack karen liam "
    "maria nathan olivia peter quinn rachel samuel tina ursula victor "
    "wendy xavier yvonne zach noah mia ethan ava"
).split()

LAST_NAMES = (
    "smith johnson williams brown jones garcia miller davis rodriguez "
    "martinez hernandez lopez gonzalez wilson anderson thomas taylor "
    "moore jackson martin lee perez thompson white harris sanchez clark"
).split()

CITIES = (
    "springfield riverton fairview lakeside georgetown madison clinton "
    "arlington ashland auburn bristol burlington camden chester clayton "
    "dayton dover florence franklin greenville hamilton hudson jackson "
    "kingston lebanon lexington manchester marion milford newport oxford"
).split()

STATES = (
    "alabama alaska arizona arkansas california colorado connecticut "
    "delaware florida georgia hawaii idaho illinois indiana iowa kansas "
    "kentucky louisiana maine maryland massachusetts michigan minnesota "
    "mississippi missouri montana nebraska nevada ohio oregon texas utah "
    "vermont virginia washington wisconsin wyoming"
).split()

DISEASES = (
    "influenza pneumonia diabetes asthma hypertension bronchitis "
    "arthritis migraine anemia appendicitis dermatitis gastritis "
    "hepatitis measles mumps sinusitis tonsillitis fracture concussion "
    "allergy"
).split()

CUISINES = "italian mexican chinese indian thai french japanese greek".split()

CATEGORIES = (
    "electronics clothing furniture toys books groceries sports garden "
    "jewelry automotive"
).split()

COUNTRIES = (
    "usa canada mexico brazil france germany italy spain japan china "
    "india australia egypt kenya norway sweden poland greece"
).split()

GENDERS = ("male", "female")

TITLES_ADJ = "modern ancient silent hidden broken golden distant endless".split()
TITLES_NOUN = "river mountain garden journey empire shadow harbor season".split()

SUBJECTS = (
    "algebra biology chemistry physics history literature economics "
    "statistics philosophy programming databases networks"
).split()

DEPARTMENTS = (
    "engineering marketing finance operations research sales support "
    "design legal logistics"
).split()

BUILDINGS = "north_hall south_hall east_wing west_wing main_tower annex".split()

JOB_TITLES = (
    "engineer analyst manager director technician consultant clerk "
    "specialist coordinator administrator"
).split()

AIRPORT_CODES = (
    "jfk lax ord atl dfw sfo sea bos mia den phx iah msp dtw phl lga"
).split()

AIRCRAFT_MODELS = (
    "a320 a330 a350 b737 b747 b757 b767 b777 b787 e190 crj900 md80"
).split()

CAR_MODELS = (
    "falcon comet ranger summit breeze aurora pioneer vista horizon nova"
).split()

HANDLES = (
    "stargazer codewiz pixelpanda nightowl sunbeam quickfox bluejay "
    "thunder maplewood riverstone"
).split()

#: Numeric ranges per domain hint: (low, high).
DOMAIN_RANGES = {
    "age": (1, 99),
    "height": (100, 6200),
    "length": (50, 3800),
    "duration": (1, 60),
    "size": (10, 900),
    "area": (1000, 600000),
    "population": (5000, 9000000),
    "price": (5, 2000),
    "salary": (30000, 180000),
    "weight": (1, 500),
    "speed": (60, 700),
    "date": (1950, 2020),
    "count": (0, 500),
}

_GENERIC_RANGE = (0, 1000)


def populate(schema: Schema, rows_per_table: int = 40, seed: int = 7) -> Database:
    """Create a :class:`Database` for ``schema`` filled with sample rows.

    Tables are populated in FK dependency order so foreign keys always
    reference existing parent values.  The same ``(schema, seed)``
    always produces identical data.
    """
    rng = np.random.default_rng(seed)
    database = Database(schema)
    generated: dict[tuple[str, str], list] = {}

    for table in _dependency_order(schema):
        fk_sources = {
            fk.column: (fk.ref_table, fk.ref_column)
            for fk in schema.foreign_keys
            if fk.table == table.name
        }
        rows = []
        for row_index in range(rows_per_table):
            row = {}
            for column in table.columns:
                if column.name in fk_sources:
                    parent = generated[fk_sources[column.name]]
                    row[column.name] = parent[int(rng.integers(len(parent)))]
                else:
                    row[column.name] = _value_for(column, table, row_index, rng)
            rows.append(row)
        database.insert_many(table.name, rows)
        for column in table.columns:
            generated[(table.name, column.name)] = [r[column.name] for r in rows]
    return database


def _dependency_order(schema: Schema) -> list[Table]:
    """Tables sorted so FK parents precede children (cycles broken by order)."""
    children = {fk.table for fk in schema.foreign_keys}
    ordered = [t for t in schema.tables if t.name not in children]
    remaining = [t for t in schema.tables if t.name in children]
    done = {t.name for t in ordered}
    while remaining:
        progressed = False
        for table in list(remaining):
            parents = {
                fk.ref_table for fk in schema.foreign_keys if fk.table == table.name
            }
            if parents <= done | {table.name}:
                ordered.append(table)
                done.add(table.name)
                remaining.remove(table)
                progressed = True
        if not progressed:  # FK cycle: append the rest in schema order
            ordered.extend(remaining)
            break
    return ordered


def _value_for(column: Column, table: Table, row_index: int, rng: np.random.Generator):
    """Generate one value for ``column`` using name/domain heuristics."""
    if column.primary_key and column.ctype is ColumnType.INTEGER:
        return row_index + 1
    if column.ctype.is_numeric:
        low, high = DOMAIN_RANGES.get(column.domain, _GENERIC_RANGE)
        if column.ctype is ColumnType.FLOAT:
            value = float(np.round(rng.uniform(low, high), 2))
            if column.name in ("gpa", "rating", "stars"):
                value = float(np.round(rng.uniform(1.0, 5.0), 2))
            return value
        return int(rng.integers(low, high + 1))
    if column.ctype is ColumnType.DATE:
        year = int(rng.integers(1995, 2021))
        month = int(rng.integers(1, 13))
        day = int(rng.integers(1, 29))
        return f"{year:04d}-{month:02d}-{day:02d}"
    return _text_value(column, table, row_index, rng)


def _pick(pool, rng: np.random.Generator) -> str:
    return pool[int(rng.integers(len(pool)))]


def _text_value(column: Column, table: Table, row_index: int, rng) -> str:
    name = column.name
    if name in ("state_name", "state"):
        return _pick(STATES, rng)
    if "city" in name or name in ("location", "capital"):
        return _pick(CITIES, rng)
    if name == "gender":
        return _pick(GENDERS, rng)
    if name == "diagnosis":
        return _pick(DISEASES, rng)
    if name == "cuisine":
        return _pick(CUISINES, rng)
    if name == "category":
        return _pick(CATEGORIES, rng)
    if name in ("country",):
        return _pick(COUNTRIES, rng)
    if name in ("dept_name", "department"):
        return _pick(DEPARTMENTS, rng)
    if name == "building":
        return _pick(BUILDINGS, rng)
    if name == "username":
        return f"{_pick(HANDLES, rng)}{row_index}"
    if name in ("airport_code", "origin", "destination"):
        return _pick(AIRPORT_CODES, rng)
    if name == "aircraft_model":
        return _pick(AIRCRAFT_MODELS, rng)
    if name == "model":
        return _pick(CAR_MODELS, rng)
    if name == "course_id":
        return f"{_pick(SUBJECTS, rng)[:4]}{100 + row_index}"
    if name == "title" and table.name in ("employee",):
        return _pick(JOB_TITLES, rng)
    if name == "title" and table.name in ("course",):
        return f"introduction to {_pick(SUBJECTS, rng)}"
    if name == "title":
        return f"the {_pick(TITLES_ADJ, rng)} {_pick(TITLES_NOUN, rng)}"
    if "name" in name or name in ("member", "reviewer"):
        # Covers person names and entity names alike.
        if table.name in ("mountain", "river"):
            return f"{_pick(TITLES_ADJ, rng)} {table.name} {row_index}"
        if name in ("maker_name", "airport_name", "product_name"):
            return f"{_pick(TITLES_ADJ, rng)} {_pick(TITLES_NOUN, rng)}"
        return f"{_pick(FIRST_NAMES, rng)} {_pick(LAST_NAMES, rng)}"
    return f"{name}_{row_index}"
