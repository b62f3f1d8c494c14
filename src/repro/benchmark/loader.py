"""Initial data loading for the B2W benchmark.

Populates the stock catalogue and a base population of active carts and
checkouts, sized so the resident data volume approximates the paper's
1106 MB of "active shopping carts and checkouts" at full scale (the
loader scales linearly, so tests load tiny databases with the same code).
"""

from __future__ import annotations


import numpy as np

from ..errors import SimulationError
from ..hstore.cluster import Cluster


def sku_id(index: int) -> str:
    return f"SKU-{index:08d}"


def cart_id(index: int) -> str:
    return f"CART-{index:012d}"


def checkout_id(index: int) -> str:
    return f"CHK-{index:012d}"


def customer_id(index: int) -> str:
    return f"CUST-{index:08d}"


#: A loaded cart holds one to this many lines.
MAX_LINES_PER_CART = 5


def load_b2w_data(
    cluster: Cluster,
    n_stock: int = 1000,
    n_carts: int = 2000,
    n_checkouts: int = 200,
    seed: int = 17,
) -> None:
    """Load stock, carts and checkouts into an (empty) cluster."""
    if n_stock < 1:
        raise SimulationError("need at least one SKU")
    rng = np.random.default_rng(seed)

    for i in range(n_stock):
        cluster.insert(
            "stock",
            {
                "sku": sku_id(i),
                "warehouse": f"WH-{i % 7}",
                "quantity": int(rng.integers(10, 500)),
                "reserved": 0,
                "updated_at": 0.0,
            },
        )

    for i in range(n_carts):
        n_lines = int(rng.integers(1, MAX_LINES_PER_CART + 1))
        lines = [
            {
                "sku": sku_id(int(rng.integers(0, n_stock))),
                "quantity": int(rng.integers(1, 4)),
                "unit_price": round(float(rng.uniform(5.0, 400.0)), 2),
            }
            for _ in range(n_lines)
        ]
        cluster.insert(
            "cart",
            {
                "cart_id": cart_id(i),
                "customer_id": customer_id(int(rng.integers(0, max(1, n_carts // 3)))),
                "lines": lines,
                "status": "active",
                "total": sum(l["quantity"] * l["unit_price"] for l in lines),
                "created_at": 0.0,
                "updated_at": 0.0,
            },
        )

    for i in range(n_checkouts):
        source_cart = cart_id(int(rng.integers(0, max(1, n_carts))))
        lines = [
            {
                "sku": sku_id(int(rng.integers(0, n_stock))),
                "quantity": 1,
                "unit_price": round(float(rng.uniform(5.0, 400.0)), 2),
            }
        ]
        cluster.insert(
            "checkout",
            {
                "checkout_id": checkout_id(i),
                "cart_id": source_cart,
                "customer_id": customer_id(int(rng.integers(0, max(1, n_carts // 3)))),
                "lines": lines,
                "payment": None,
                "status": "open",
                "total": sum(l["quantity"] * l["unit_price"] for l in lines),
                "created_at": 0.0,
            },
        )
