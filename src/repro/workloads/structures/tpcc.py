"""TPC-C-style transactional tables on a PMO (WHISPER's ``TPCC``).

A small but genuine subset of TPC-C: WAREHOUSE, DISTRICT, CUSTOMER,
and ORDER tables laid out as fixed-stride record arrays inside one
PMO, plus the NEW-ORDER and PAYMENT transactions updating them under
redo-log protection.  Record sizes and the transaction shapes follow
the benchmark's structure (scaled down) so the access patterns the
simulator measures are representative.
"""

from __future__ import annotations

import struct
from typing import List, Optional

import numpy as np

from repro.core.errors import PmoError
from repro.core.record import record
from repro.pmo.object_id import Oid

_HEADER = struct.Struct("<QIIII")  # magic, warehouses, districts/w, customers/d, max orders
_MAGIC = 0x545043435F323232  # "TPCC_222"

WAREHOUSE_STRIDE = 64     # ytd balance, tax, ...
DISTRICT_STRIDE = 64      # ytd, tax, next_o_id, ...
CUSTOMER_STRIDE = 128     # balance, ytd_payment, payment_cnt, data
ORDER_STRIDE = 64         # customer, item count, amount, timestamp


@record(frozen=True)
class TpccConfig:
    warehouses: int = 2
    districts_per_warehouse: int = 10
    customers_per_district: int = 30
    max_orders: int = 10_000


class TpccDatabase:
    """The persistent database and its two core transactions."""

    def __init__(self, pmo, root: Oid, config: TpccConfig) -> None:
        self.pmo = pmo
        self._root = root
        self.config = config
        base = root.offset + _HEADER.size + 16
        c = config
        self._warehouse_base = base
        self._district_base = (self._warehouse_base
                               + c.warehouses * WAREHOUSE_STRIDE)
        self._customer_base = (self._district_base
                               + c.warehouses * c.districts_per_warehouse
                               * DISTRICT_STRIDE)
        self._order_base = (self._customer_base
                            + c.warehouses * c.districts_per_warehouse
                            * c.customers_per_district * CUSTOMER_STRIDE)
        self._size = (self._order_base - root.offset
                      + c.max_orders * ORDER_STRIDE)

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, pmo, config: TpccConfig = TpccConfig()) -> "TpccDatabase":
        c = config
        records = (c.warehouses * WAREHOUSE_STRIDE
                   + c.warehouses * c.districts_per_warehouse
                   * DISTRICT_STRIDE
                   + c.warehouses * c.districts_per_warehouse
                   * c.customers_per_district * CUSTOMER_STRIDE
                   + c.max_orders * ORDER_STRIDE)
        root = pmo.pmalloc(_HEADER.size + 16 + records)
        pmo.write(root.offset, _HEADER.pack(
            _MAGIC, c.warehouses, c.districts_per_warehouse,
            c.customers_per_district, c.max_orders))
        pmo.write_u64(root.offset + _HEADER.size, 0)       # order count
        pmo.write_u64(root.offset + _HEADER.size + 8, 0)   # tx count
        pmo.root_oid = root
        return cls(pmo, root, config)

    @classmethod
    def open(cls, pmo) -> "TpccDatabase":
        root = pmo.root_oid
        if root.is_null():
            raise PmoError("PMO has no root object")
        magic, w, d, cust, orders = _HEADER.unpack(
            pmo.read(root.offset, _HEADER.size))
        if magic != _MAGIC:
            raise PmoError("not a TpccDatabase root")
        return cls(pmo, root, TpccConfig(w, d, cust, orders))

    # -- record addressing -----------------------------------------------------

    def _warehouse_off(self, w: int) -> int:
        self._check(w, self.config.warehouses, "warehouse")
        return self._warehouse_base + w * WAREHOUSE_STRIDE

    def _district_off(self, w: int, d: int) -> int:
        self._check(w, self.config.warehouses, "warehouse")
        self._check(d, self.config.districts_per_warehouse, "district")
        index = w * self.config.districts_per_warehouse + d
        return self._district_base + index * DISTRICT_STRIDE

    def _customer_off(self, w: int, d: int, c: int) -> int:
        self._check(w, self.config.warehouses, "warehouse")
        self._check(d, self.config.districts_per_warehouse, "district")
        self._check(c, self.config.customers_per_district, "customer")
        index = ((w * self.config.districts_per_warehouse + d)
                 * self.config.customers_per_district + c)
        return self._customer_base + index * CUSTOMER_STRIDE

    def _order_off(self, o: int) -> int:
        self._check(o, self.config.max_orders, "order")
        return self._order_base + o * ORDER_STRIDE

    def _check(self, index: int, bound: int, what: str) -> None:
        if not 0 <= index < bound:
            raise PmoError(f"{what} index {index} out of range")

    # -- persistent counters -------------------------------------------------------

    @property
    def order_count(self) -> int:
        return self.pmo.read_u64(self._root.offset + _HEADER.size)

    def _set_order_count(self, n: int) -> None:
        self.pmo.write_u64(self._root.offset + _HEADER.size, n)

    @property
    def tx_count(self) -> int:
        return self.pmo.read_u64(self._root.offset + _HEADER.size + 8)

    def _bump_tx_count(self) -> None:
        self.pmo.write_u64(self._root.offset + _HEADER.size + 8,
                           self.tx_count + 1)

    # -- transactions -----------------------------------------------------------------

    def new_order(self, warehouse: int, district: int, customer: int,
                  item_count: int, amount_cents: int) -> int:
        """The NEW-ORDER transaction; returns the order id."""
        if self.order_count >= self.config.max_orders:
            raise PmoError("order table full")
        self.pmo.begin_tx()
        try:
            d_off = self._district_off(warehouse, district)
            next_o_id = self.pmo.read_u64(d_off + 16)
            self.pmo.write_u64(d_off + 16, next_o_id + 1)   # D_NEXT_O_ID
            order_id = self.order_count
            o_off = self._order_off(order_id)
            self.pmo.write(o_off, struct.pack(
                "<QIIQ",
                (warehouse << 32) | (district << 16) | customer,
                item_count, 0, amount_cents))
            self._set_order_count(order_id + 1)
            # Customer balance reflects the order.
            c_off = self._customer_off(warehouse, district, customer)
            balance = self.pmo.read_u64(c_off)
            self.pmo.write_u64(c_off, balance + amount_cents)
            self._bump_tx_count()
            self.pmo.commit_tx()
            return order_id
        except Exception:
            if self.pmo.log.in_transaction:
                self.pmo.abort_tx()
            raise

    def payment(self, warehouse: int, district: int, customer: int,
                amount_cents: int) -> None:
        """The PAYMENT transaction: W/D ytd and customer balance."""
        self.pmo.begin_tx()
        try:
            w_off = self._warehouse_off(warehouse)
            self.pmo.write_u64(w_off, self.pmo.read_u64(w_off)
                               + amount_cents)              # W_YTD
            d_off = self._district_off(warehouse, district)
            self.pmo.write_u64(d_off, self.pmo.read_u64(d_off)
                               + amount_cents)              # D_YTD
            c_off = self._customer_off(warehouse, district, customer)
            balance = self.pmo.read_u64(c_off)
            if balance < amount_cents:
                raise PmoError("insufficient balance")
            self.pmo.write_u64(c_off, balance - amount_cents)
            self.pmo.write_u64(c_off + 8, self.pmo.read_u64(c_off + 8)
                               + amount_cents)              # C_YTD_PAYMENT
            self.pmo.write_u64(c_off + 16, self.pmo.read_u64(c_off + 16)
                               + 1)                         # C_PAYMENT_CNT
            self._bump_tx_count()
            self.pmo.commit_tx()
        except Exception:
            if self.pmo.log.in_transaction:
                self.pmo.abort_tx()
            raise

    # -- reads -------------------------------------------------------------------

    def customer_balance(self, warehouse: int, district: int,
                         customer: int) -> int:
        return self.pmo.read_u64(
            self._customer_off(warehouse, district, customer))

    def warehouse_ytd(self, warehouse: int) -> int:
        return self.pmo.read_u64(self._warehouse_off(warehouse))

    def district_ytd(self, warehouse: int, district: int) -> int:
        return self.pmo.read_u64(self._district_off(warehouse, district))

    def order(self, order_id: int) -> tuple:
        ids, items, _, amount = struct.unpack(
            "<QIIQ", self.pmo.read(self._order_off(order_id), 24))
        return (ids >> 32, (ids >> 16) & 0xFFFF, ids & 0xFFFF,
                items, amount)

    def total_balance(self) -> int:
        """Sum of all customer balances (consistency invariant aid)."""
        c = self.config
        total = 0
        for w in range(c.warehouses):
            for d in range(c.districts_per_warehouse):
                for cust in range(c.customers_per_district):
                    total += self.customer_balance(w, d, cust)
        return total
