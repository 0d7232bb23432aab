"""Import path for :func:`canonical_sql` and :func:`normalize`.

Both live in :mod:`repro.sql.canonical`; this module only re-exports
them for the serving benchmark (``perfbench/``).  Library code imports
from :mod:`repro.sql.canonical` — importing this module rebinds the
package attribute ``repro.sql.normalize`` from the function to the
module.
"""

from repro.sql.canonical import canonical_sql, normalize

__all__ = ["canonical_sql", "normalize"]
