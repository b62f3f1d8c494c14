"""Trace-driven workload driver for the B2W benchmark.

The paper replays B2W's production logs; without those logs we generate
statistically equivalent traffic: an open-loop stream whose aggregate
rate follows a :class:`~repro.workload.trace.LoadTrace` and whose
transactions follow realistic retail sessions — browsing stock, editing
carts, and multi-step checkout flows that reserve stock, collect payment
and purchase (or cancel).  Keys are uniformly random, matching the
paper's finding of minimal partition skew (Sec. 8.1).

All nineteen procedures of Table 4 are exercised.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..hstore.engine import TransactionExecutor
from ..hstore.txn import Transaction, TxnResult
from ..workload.trace import LoadTrace
from .loader import cart_id, checkout_id, customer_id, sku_id
from .transactions import ALL_PROCEDURES

#: Relative frequencies of the driver's session actions.  Composite
#: actions (checkout, cancel) expand into several transactions.
DEFAULT_ACTION_WEIGHTS = {
    "browse": 0.32,
    "add_line": 0.24,
    "get_cart": 0.16,
    "delete_line": 0.04,
    "delete_cart": 0.03,
    "checkout": 0.07,
    "checkout_edit": 0.06,
    "cancel_reservation": 0.04,
    "stock_read": 0.04,
}


#: First index of the carts, checkouts and stock transactions the driver
#: creates: far above anything the loader writes, so ids never collide.
FIRST_DRIVER_INDEX = 10_000_000


class B2WDriver:
    """Generates and executes B2W transactions against an executor."""

    def __init__(
        self,
        executor: TransactionExecutor,
        n_stock: int,
        seed: int = 29,
        action_weights: Optional[Dict[str, float]] = None,
    ):
        if n_stock < 1:
            raise SimulationError("n_stock must be >= 1")
        self.executor = executor
        self.n_stock = n_stock
        self._rng = np.random.default_rng(seed)
        weights = dict(action_weights or DEFAULT_ACTION_WEIGHTS)
        unknown = set(weights) - set(DEFAULT_ACTION_WEIGHTS)
        if unknown:
            raise SimulationError(f"unknown driver actions {sorted(unknown)}")
        total = sum(weights.values())
        if total <= 0:
            raise SimulationError("action weights must sum to > 0")
        self._actions = list(weights)
        self._action_p = np.array([weights[a] / total for a in self._actions])
        self._next_cart = FIRST_DRIVER_INDEX
        self._next_checkout = FIRST_DRIVER_INDEX
        self._next_stock_txn = FIRST_DRIVER_INDEX
        # Pools of live entities the driver can legally operate on.
        self._active_carts: List[str] = []
        self._cart_lines: Dict[str, List[dict]] = {}
        self._open_checkouts: List[str] = []
        self._reservations: List[Tuple[str, str, int]] = []  # (txn_id, sku, qty)
        self.txn_counts: Counter = Counter()
        self.aborts = 0

    # ------------------------------------------------------------------
    # Transaction emission
    # ------------------------------------------------------------------

    def _random_sku(self) -> str:
        return sku_id(int(self._rng.integers(0, self.n_stock)))

    def _submit(self, name: str, params: dict, now: float) -> TxnResult:
        txn = Transaction(
            procedure=ALL_PROCEDURES[name],
            params={**params, "now": now},
            submit_time=now,
        )
        result = self.executor.execute(txn)
        self.txn_counts[name] += 1
        if not result.committed:
            self.aborts += 1
        return result

    def _new_cart_id(self) -> str:
        self._next_cart += 1
        return cart_id(self._next_cart)

    def _action_browse(self, now: float) -> None:
        sku = self._random_sku()
        self._submit("GetStockQuantity", {"sku": sku}, now)

    def _action_stock_read(self, now: float) -> None:
        self._submit("GetStock", {"sku": self._random_sku()}, now)
        if self._reservations and self._rng.random() < 0.5:
            txn_id, _, _ = self._reservations[
                int(self._rng.integers(0, len(self._reservations)))
            ]
            self._submit("GetStockTransaction", {"transaction_id": txn_id}, now)

    def _action_add_line(self, now: float) -> None:
        # 40% of adds open a brand-new cart; the rest grow existing ones.
        if not self._active_carts or self._rng.random() < 0.4:
            cart = self._new_cart_id()
            self._active_carts.append(cart)
            self._cart_lines[cart] = []
        else:
            cart = self._choice(self._active_carts)
        sku = self._random_sku()
        line = {
            "sku": sku,
            "quantity": int(self._rng.integers(1, 3)),
            "unit_price": round(float(self._rng.uniform(5.0, 400.0)), 2),
        }
        result = self._submit(
            "AddLineToCart",
            {
                "cart_id": cart,
                "customer_id": customer_id(int(self._rng.integers(0, 100_000))),
                **line,
            },
            now,
        )
        if result.committed:
            self._cart_lines.setdefault(cart, []).append(line)

    def _action_get_cart(self, now: float) -> None:
        if not self._active_carts:
            return self._action_add_line(now)
        self._submit("GetCart", {"cart_id": self._choice(self._active_carts)}, now)

    def _action_delete_line(self, now: float) -> None:
        candidates = [c for c in self._active_carts if self._cart_lines.get(c)]
        if not candidates:
            return self._action_add_line(now)
        cart = self._choice(candidates)
        line = self._cart_lines[cart][-1]
        result = self._submit(
            "DeleteLineFromCart", {"cart_id": cart, "sku": line["sku"]}, now
        )
        if result.committed:
            self._cart_lines[cart] = [
                l for l in self._cart_lines[cart] if l["sku"] != line["sku"]
            ]

    def _action_delete_cart(self, now: float) -> None:
        if not self._active_carts:
            return self._action_browse(now)
        cart = self._choice(self._active_carts)
        result = self._submit("DeleteCart", {"cart_id": cart}, now)
        if result.committed:
            self._forget_cart(cart)

    def _action_checkout(self, now: float) -> None:
        """The full purchase flow of Appendix C."""
        candidates = [c for c in self._active_carts if self._cart_lines.get(c)]
        if not candidates:
            return self._action_add_line(now)
        cart = self._choice(candidates)
        lines = list(self._cart_lines[cart])
        self._submit("ReserveCart", {"cart_id": cart}, now)

        reserved: List[Tuple[str, dict]] = []
        for line in lines:
            result = self._submit(
                "ReserveStock",
                {"sku": line["sku"], "quantity": line["quantity"]},
                now,
            )
            if not result.committed:
                continue  # out of stock: the line is dropped from the order
            self._next_stock_txn += 1
            txn_id = f"STXN-{self._next_stock_txn:012d}"
            self._submit(
                "CreateStockTransaction",
                {
                    "transaction_id": txn_id,
                    "sku": line["sku"],
                    "cart_id": cart,
                    "quantity": line["quantity"],
                },
                now,
            )
            reserved.append((txn_id, line))

        if not reserved:
            return self._forget_cart(cart)

        self._next_checkout += 1
        chk = checkout_id(self._next_checkout)
        self._submit(
            "CreateCheckout",
            {
                "checkout_id": chk,
                "cart_id": cart,
                "lines": [line for _, line in reserved],
            },
            now,
        )
        self._submit(
            "CreateCheckoutPayment",
            {
                "checkout_id": chk,
                "payment": {"method": "credit-card", "installments": 3},
            },
            now,
        )
        for txn_id, line in reserved:
            self._submit(
                "UpdateStockTransaction",
                {"transaction_id": txn_id, "status": "purchased"},
                now,
            )
            self._submit(
                "PurchaseStock",
                {"sku": line["sku"], "quantity": line["quantity"]},
                now,
            )
        self._submit("DeleteCart", {"cart_id": cart}, now)
        self._forget_cart(cart)
        self._open_checkouts.append(chk)

    def _action_checkout_edit(self, now: float) -> None:
        if not self._open_checkouts:
            return self._action_checkout(now)
        chk = self._choice(self._open_checkouts)
        roll = self._rng.random()
        if roll < 0.4:
            self._submit("GetCheckout", {"checkout_id": chk}, now)
        elif roll < 0.7:
            self._submit(
                "AddLineToCheckout",
                {
                    "checkout_id": chk,
                    "sku": self._random_sku(),
                    "quantity": 1,
                    "unit_price": round(float(self._rng.uniform(5.0, 400.0)), 2),
                },
                now,
            )
        elif roll < 0.85:
            result = self._submit("DeleteCheckout", {"checkout_id": chk}, now)
            if result.committed:
                self._open_checkouts.remove(chk)
        else:
            # Editing a paid checkout may legitimately abort; ignore.
            self._submit(
                "DeleteLineFromCheckout",
                {"checkout_id": chk, "sku": self._random_sku()},
                now,
            )

    def _action_cancel_reservation(self, now: float) -> None:
        """Reserve stock and then release it (abandoned checkout)."""
        sku = self._random_sku()
        result = self._submit("ReserveStock", {"sku": sku, "quantity": 1}, now)
        if not result.committed:
            return
        self._next_stock_txn += 1
        txn_id = f"STXN-{self._next_stock_txn:012d}"
        self._submit(
            "CreateStockTransaction",
            {
                "transaction_id": txn_id,
                "sku": sku,
                "cart_id": self._new_cart_id(),
                "quantity": 1,
            },
            now,
        )
        self._submit(
            "UpdateStockTransaction",
            {"transaction_id": txn_id, "status": "cancelled"},
            now,
        )
        self._submit(
            "CancelStockReservation", {"sku": sku, "quantity": 1}, now
        )
        self._reservations.append((txn_id, sku, 1))

    def _forget_cart(self, cart: str) -> None:
        if cart in self._active_carts:
            self._active_carts.remove(cart)
        self._cart_lines.pop(cart, None)

    def _choice(self, pool: List[str]) -> str:
        return pool[int(self._rng.integers(0, len(pool)))]

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run_second(self, now: float, rate_tps: float) -> int:
        """Issue roughly ``rate_tps`` transactions for second ``now``.

        The action mix expands composite flows, so the realised count can
        exceed the nominal rate slightly; the count of executed
        transactions is returned.
        """
        if rate_tps < 0:
            raise SimulationError("rate must be non-negative")
        before = sum(self.txn_counts.values())
        target = int(self._rng.poisson(rate_tps))
        while sum(self.txn_counts.values()) - before < target:
            action = self._actions[
                int(self._rng.choice(len(self._actions), p=self._action_p))
            ]
            getattr(self, f"_action_{action}")(now)
        return sum(self.txn_counts.values()) - before
