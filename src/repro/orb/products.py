"""ORB product flavours.

The WebFINDIT prototype deliberately mixed three commercial ORBs —
Orbix (C++), OrbixWeb (Java) and VisiBroker for Java — to demonstrate
CORBA 2.0 IIOP interoperability.  We model each product as a configured
:class:`~repro.orb.orb.Orb` carrying its vendor identity; requests
between different products increment cross-product counters on both the
ORB and the transport (``tests/core/test_system.py`` and
``tests/apps/test_deploy.py`` count them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import OrbError
from repro.orb.orb import Orb
from repro.orb.transport import Transport


@dataclass(frozen=True)
class OrbProduct:
    """Static identity of one ORB product."""

    name: str
    vendor: str
    language: str
    version: str

    @property
    def banner(self) -> str:
        return f"{self.name} {self.version} ({self.vendor}, {self.language})"


#: The three products used in the paper's prototype (§5), plus JavaIDL
#: which the paper mentions as the JDK 1.2 beta ORB.
ORBIX = OrbProduct(name="Orbix", vendor="IONA", language="C++", version="2")
ORBIXWEB = OrbProduct(name="OrbixWeb", vendor="IONA", language="Java",
                      version="3")
VISIBROKER = OrbProduct(name="VisiBroker for Java", vendor="Inprise",
                        language="Java", version="3.2")
JAVAIDL = OrbProduct(name="JavaIDL", vendor="Sun", language="Java",
                     version="1.2beta")

PRODUCTS: dict[str, OrbProduct] = {
    product.name.lower(): product
    for product in (ORBIX, ORBIXWEB, VISIBROKER, JAVAIDL)
}


def get_product(name: str) -> OrbProduct:
    """Look up a product by (case-insensitive) name."""
    product = PRODUCTS.get(name.lower())
    if product is None:
        raise OrbError(f"unknown ORB product {name!r}; known: "
                       f"{sorted(PRODUCTS)}")
    return product


def create_orb(product: OrbProduct | str, transport: Transport,
               name: Optional[str] = None, host: str = "localhost",
               port: Optional[int] = None) -> Orb:
    """Instantiate an ORB of the given product on a shared transport."""
    if isinstance(product, str):
        product = get_product(product)
    orb_name = name or product.name.lower().replace(" ", "-")
    return Orb(name=orb_name, transport=transport, host=host, port=port,
               product=product.name, vendor=product.vendor,
               language=product.language)
