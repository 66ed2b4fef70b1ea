"""Network block device: kernel NBD vs. SPDK NBD (paper Section VI-C).

The client runs fio over an ext4 file system mounted on ``/dev/nbdX``;
every block I/O crosses the network to a storage server that owns the
ULL SSD.  Two server implementations:

* **Kernel NBD** — the classic ``nbd-server`` path: the server process
  sleeps on the socket, so every request pays a socket wake-up, a
  syscall into the full storage stack, and (for reads, which block on
  flash) an interrupt + wake-up on the device side before the reply is
  pushed back through the kernel network stack.
* **SPDK NBD** — the server polls both the connection and the NVMe
  queue pairs from user space (SPDK + DPDK): no wake-ups, no syscalls,
  no ISR.

The asymmetry the paper highlights falls out of the device model:
*reads* block the server on flash (every wake-up/ISR saved counts —
~39 % lower latency), while *writes* complete in the device's DRAM
write buffer almost immediately, so the kernel server barely sleeps and
the bypass saves only its syscall/copy overhead (<5 %).  On the client
side, ext4 journaling and metadata updates (which cannot be bypassed)
pile further fixed cost onto every write.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.host.accounting import CpuAccounting, ExecMode
from repro.host.costs import DEFAULT_COSTS, SoftwareCosts, StepCost
from repro.net.link import NetworkLink
from repro.sim.engine import Simulator
from repro.sim.events import Wait
from repro.ssd.device import IoOp, SsdDevice
from repro.units import Bytes

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.obs.tracer import IoTrace

#: NBD protocol request/response header size.
NBD_HEADER_BYTES = 28


class NbdServerKind(enum.Enum):
    """Which server implementation handles requests."""

    KERNEL = "kernel-nbd"
    SPDK = "spdk-nbd"


@dataclass(frozen=True)
class NbdServerCosts:
    """Server-side residence costs around the device access."""

    # Kernel nbd-server, read path: the server sleeps between requests,
    # so a read pays a socket wake-up on arrival, a read() syscall
    # through VFS+blk-mq, an interrupt + process wake-up while blocked
    # on flash, and a send() back through the TCP stack.
    kernel_socket_wakeup: StepCost = StepCost(ns=7_000, loads=1100, stores=800)
    kernel_syscall_path: StepCost = StepCost(ns=3_500, loads=600, stores=420)
    kernel_block_wakeup: StepCost = StepCost(ns=3_000, loads=450, stores=330)
    kernel_reply_send: StepCost = StepCost(ns=4_500, loads=700, stores=520)

    # Kernel nbd-server, write path: writes stream in bursts (the client
    # file system pipelines data + journal + metadata blocks), so the
    # server is already awake when the next write arrives, and a write()
    # into the device's DRAM buffer returns without blocking — no
    # wake-ups to save.  This is why SPDK NBD barely helps writes.
    kernel_write_recv: StepCost = StepCost(ns=1_500, loads=260, stores=180)
    kernel_write_reply: StepCost = StepCost(ns=2_500, loads=400, stores=290)

    # SPDK nbd target: everything polled in one user-space reactor, but
    # write payloads must be copied from the socket into pinned hugepage
    # DMA buffers before submission.
    spdk_poll_dispatch: StepCost = StepCost(ns=800, loads=160, stores=90)
    spdk_submit: StepCost = StepCost(ns=400, loads=80, stores=55)
    spdk_write_copy: StepCost = StepCost(ns=2_000, loads=550, stores=550)
    spdk_reply_send: StepCost = StepCost(ns=1_200, loads=220, stores=140)


class NbdSystem:
    """A client-side block path over the network to an NBD server.

    Exposes the same ``sync_io`` contract as the local stacks, so the
    ext4 model and the workload engines compose with it unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        *,
        server: NbdServerKind,
        link: Optional[NetworkLink] = None,
        client_costs: Optional[SoftwareCosts] = None,
        server_costs: Optional[NbdServerCosts] = None,
        accounting: Optional[CpuAccounting] = None,
        faults: "Optional[FaultPlan]" = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.server = server
        self.link = link or NetworkLink(sim, faults=faults)
        self.costs = client_costs or DEFAULT_COSTS
        self.server_costs = server_costs or NbdServerCosts()
        self.accounting = accounting or CpuAccounting()
        self.requests = 0

    # ------------------------------------------------------------------
    def sync_io(
        self, op: IoOp, offset: Bytes, nbytes: int
    ) -> Generator[Wait, Any, int]:
        """Process: one block I/O across the network.  Returns latency.

        CPU steps are charged one by one, but the clock advances once
        per run of them: each run ends where the request or its reply
        goes onto the link, or where the server touches the device.
        """
        costs = self.costs
        sim = self.sim
        charge = self.accounting.charge_step
        started = sim.now
        self.requests += 1
        tracer = sim.obs.tracer
        ctx = tracer.begin_io(op, offset, nbytes, started) if tracer.enabled else None
        if ctx is not None:
            ctx.phase("submit", started)
        # Client: submission through the local kernel stack into nbd.ko.
        run_ns = charge(costs.syscall_entry, ExecMode.KERNEL, "vfs", "syscall")
        run_ns += charge(costs.vfs_submit, ExecMode.KERNEL, "vfs", "vfs_rw")
        run_ns += charge(
            costs.blkmq_submit, ExecMode.KERNEL, "blk-mq", "blk_mq_make_request"
        )
        if not sim.advance_if_next(sim.now + run_ns):
            yield sim.sleep(run_ns)
        # Request (+ payload for writes) to the server.
        request_bytes = NBD_HEADER_BYTES + (nbytes if op is IoOp.WRITE else 0)
        send_at = sim.now
        sent, delivered = self.link.send_to_server(request_bytes, send_at)
        if ctx is not None:
            ctx.phase("net_send", send_at)
            self._trace_link_waits(ctx, send_at, sent, delivered)
        if delivered > sim.now:
            yield sim.sleep(delivered - sim.now)
        # Server-side residence.
        yield from self._server_side(op, offset, nbytes, ctx)
        # Reply (+ payload for reads) back to the client.
        reply_bytes = NBD_HEADER_BYTES + (nbytes if op is IoOp.READ else 0)
        reply_at = sim.now
        sent, returned = self.link.send_to_client(reply_bytes, reply_at)
        if ctx is not None:
            ctx.phase("net_return", reply_at)
            self._trace_link_waits(ctx, reply_at, sent, returned)
        if returned > sim.now:
            yield sim.sleep(returned - sim.now)
        # Client: completion (interrupt-driven; the NBD client is kernel
        # code either way — SPDK only bypasses the *server* side).
        if ctx is not None:
            ctx.phase("completion_isr", sim.now)
        run_ns = costs.irq_delivery_ns + charge(
            costs.blkmq_complete, ExecMode.KERNEL, "blk-mq", "blk_mq_complete_request"
        )
        run_ns += charge(costs.context_switch_in, ExecMode.KERNEL, "sched", "context_switch")
        run_ns += charge(costs.syscall_exit, ExecMode.KERNEL, "vfs", "syscall")
        if not sim.advance_if_next(sim.now + run_ns):
            yield sim.sleep(run_ns)
        if ctx is not None:
            ctx.finish(sim.now)
        return sim.now - started

    def _trace_link_waits(
        self, ctx: "IoTrace", queued_ns: int, sent_ns: int, delivered_ns: int
    ) -> None:
        """Name the waits behind one link transfer on the I/O's trace.

        Start slip is the flap window (when the outage logic deferred
        us) or plain wire serialization backlog; delivery slip beyond
        the first serialization is drop/retransmit recovery.
        """
        link = self.link
        if sent_ns > queued_ns:
            holder = "outage" if link.last_outage_defer else "wire_busy"
            ctx.wait("net.link", holder, queued_ns, sent_ns)
        if link.last_resend_wait_ns:
            wire_done = delivered_ns - link.propagation_ns
            ctx.wait(
                "net.link",
                "retransmit",
                wire_done - link.last_resend_wait_ns,
                wire_done,
            )

    # ------------------------------------------------------------------
    def _server_side(
        self, op: IoOp, offset: int, nbytes: int, ctx: "Optional[IoTrace]" = None
    ) -> Generator[Wait, Any, None]:
        if ctx is not None:
            ctx.phase("server", self.sim.now)
        if self.server is NbdServerKind.KERNEL:
            yield from self._kernel_server(op, offset, nbytes, ctx)
        else:
            yield from self._spdk_server(op, offset, nbytes, ctx)

    def _kernel_server(
        self, op: IoOp, offset: int, nbytes: int, ctx: "Optional[IoTrace]" = None
    ) -> Generator[Wait, Any, None]:
        sc = self.server_costs
        charge = self.accounting.charge_step
        if op is IoOp.READ:
            run_ns = charge(
                sc.kernel_socket_wakeup, ExecMode.KERNEL, "nbd-server", "socket_wakeup"
            )
        else:
            run_ns = charge(
                sc.kernel_write_recv, ExecMode.KERNEL, "nbd-server", "stream_recv"
            )
        run_ns += charge(
            sc.kernel_syscall_path, ExecMode.KERNEL, "nbd-server", "storage_stack"
        )
        if not self.sim.advance_if_next(self.sim.now + run_ns):
            yield self.sim.sleep(run_ns)
        done = self.device.submit(op, offset, nbytes, trace=ctx).done
        assert done is not None
        if not done.triggered:
            yield done
        if ctx is not None:
            ctx.phase("server", self.sim.now)
        if op is IoOp.READ:
            # The server slept on flash: interrupt + process wake-up.
            run_ns = charge(
                sc.kernel_block_wakeup, ExecMode.KERNEL, "nbd-server", "block_wakeup"
            )
            run_ns += charge(sc.kernel_reply_send, ExecMode.KERNEL, "nbd-server", "tcp_send")
        else:
            run_ns = charge(sc.kernel_write_reply, ExecMode.KERNEL, "nbd-server", "tcp_send")
        if not self.sim.advance_if_next(self.sim.now + run_ns):
            yield self.sim.sleep(run_ns)

    def _spdk_server(
        self, op: IoOp, offset: int, nbytes: int, ctx: "Optional[IoTrace]" = None
    ) -> Generator[Wait, Any, None]:
        sc = self.server_costs
        charge = self.accounting.charge_step
        run_ns = charge(sc.spdk_poll_dispatch, ExecMode.USER, "spdk-nbd", "reactor_poll")
        if op is IoOp.WRITE:
            run_ns += charge(
                sc.spdk_write_copy, ExecMode.USER, "spdk-nbd", "hugepage_memcpy"
            )
        run_ns += charge(sc.spdk_submit, ExecMode.USER, "spdk-nbd", "spdk_nvme_ns_cmd_rw")
        if not self.sim.advance_if_next(self.sim.now + run_ns):
            yield self.sim.sleep(run_ns)
        done = self.device.submit(op, offset, nbytes, trace=ctx).done
        assert done is not None
        if not done.triggered:
            yield done
        if ctx is not None:
            ctx.phase("server", self.sim.now)
        run_ns = charge(sc.spdk_reply_send, ExecMode.USER, "spdk-nbd", "dpdk_send")
        if not self.sim.advance_if_next(self.sim.now + run_ns):
            yield self.sim.sleep(run_ns)
