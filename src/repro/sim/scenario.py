"""The paper's deployment scenario.

Builds and schedules the full experiment of §4: the NT-A proactive
telescope inside an ISP /32 (27 honeyprefixes per Table 2, deployed in
phases across the upper half of the /32), the NT-B (/48, Ireland) and NT-C
(/32, US academic, top /33 assigned) passive telescopes, the calibrated
scanner population, ambient scanning of the long-lived passive telescopes,
the hitlist's compilation cycles, and the later triggers (TLS issuance,
manual hitlist insertion, BGP retraction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import DAY, HOUR, make_rng, spawn_rngs
from repro.core.darknet import DarknetTelescope
from repro.core.honeyprefix import Honeyprefix, standard_configs
from repro.core.proactive import ProactiveTelescope
from repro.datasets.asdb import AsCategory, AsRecord
from repro.net.addr import IPv6Prefix
from repro.net.batch import PacketBatch, normalize_probes
from repro.obs import get_journal, stage
from repro.routing.speaker import BgpSpeaker
from repro.scanners.agent import ScannerAgent
from repro.scanners.identity import AllocationMode, ScannerIdentity
from repro.scanners.population import (
    CATEGORY_PROFILES,
    PopulationSpec,
    build_population,
)
from repro.scanners.strategies import (
    AmbientScanner,
    BgpWatcher,
    CoveringSweeper,
)
from repro.sim.engine import Engine
from repro.sim.fabric import InternetFabric


@dataclass
class ScenarioConfig:
    """Scenario knobs.  Defaults give a laptop-scale 120-day run at 1:1000
    of the paper's packet volume; raise ``duration_days`` to 280 and
    ``volume_scale`` for bigger runs."""

    seed: int = 0
    duration_days: int = 120
    volume_scale: float = 1e-3
    n_tail: int = 140
    telescope_asn: int = 64500
    nta_prefix: str = "2403:e800::/32"
    ntb_prefix: str = "2001:770:200::/48"
    ntc_prefix: str = "2620:10a::/32"
    #: Deployment phase day offsets (paper-style staged rollout).
    phase1_day: int = 10
    phase2_day: int = 18
    phase3_day: int = 26
    specific_start_day: int = 34
    #: Trigger offsets relative to each honeyprefix's deployment.
    tls_offset_days: int = 12
    tpot_hitlist_offset_days: int = 28
    tpot_tls_offset_days: int = 42
    udp_hitlist_offset_days: int = 7
    #: Withdraw 2 of the 3 H_BGP prefixes this many days after deployment
    #: (the §5.3.1 retraction experiment); skipped when past the horizon.
    withdraw_after_days: int = 60
    include_rdns: bool = False
    include_sweeper: bool = True
    hitlist_first_cycle_day: int = 7
    hitlist_cycle_days: int = 14
    #: Heavy hitters' source-pool scale; None derives it from the volume
    #: scale so source-count rankings (Table 3, Fig 6) hold at any scale.
    source_scale: float | None = None
    #: Extra :class:`~repro.scanners.population.PopulationSpec` fields
    #: (e.g. ``{"ctlog_rate": 0.0}``) — the hook ablation studies use to
    #: suppress individual scanner data channels.
    population_overrides: dict = field(default_factory=dict)


@dataclass
class DispatchCounters:
    """Where emitted packets went."""

    nta: int = 0
    ntb: int = 0
    ntc: int = 0
    live_dropped: int = 0
    unrouted: int = 0


class PaperScenario:
    """Builds the full experiment and exposes a daily driver."""

    def __init__(self, config: ScenarioConfig | None = None):
        self.config = config or ScenarioConfig()
        cfg = self.config
        self.rng = make_rng(cfg.seed)
        (rng_fabric, rng_population, rng_telescope,
         rng_placement, rng_ambient) = spawn_rngs(self.rng, 5)

        self.fabric = InternetFabric(rng=rng_fabric)
        self.engine = Engine()
        self.counters = DispatchCounters()

        # -- NT-A: the proactive telescope --------------------------------
        self.nta_covering = IPv6Prefix.parse(cfg.nta_prefix)
        self.speaker = BgpSpeaker(
            cfg.telescope_asn, self.fabric.collectors,
            self.fabric.roa_registry,
        )
        self.telescope = ProactiveTelescope(
            "NT-A", self.nta_covering, self.speaker,
            registrar=self.fabric.registrar,
            acme=self.fabric.acme,
            hitlist=self.fabric.hitlist,
            reverse_zone=self.fabric.reverse_zone,
            rng=rng_telescope,
        )
        self.fabric.register_oracle(self.telescope.responds)
        self.fabric.register_interaction(self.telescope.interaction_level)
        self.fabric.hitlist.add_candidate_source(self._announced_low_candidates)
        #: The ISP uses the first five /48s; their traffic is invisible.
        self.live_prefixes = [
            self.nta_covering.subnet_at(i, 48) for i in range(5)
        ]
        #: The live /48s' hi-halves (/48 keys fit entirely in the upper
        #: uint64), for the vectorized ``np.isin`` exclusion.
        self._live_keys_hi = np.array(
            [p.network >> 64 for p in self.live_prefixes], dtype=np.uint64
        )

        # -- NT-B / NT-C: passive telescopes --------------------------------
        self.ntb_prefix = IPv6Prefix.parse(cfg.ntb_prefix)
        self.ntc_prefix = IPv6Prefix.parse(cfg.ntc_prefix)
        self.ntb = DarknetTelescope("NT-B", self.ntb_prefix)
        self.ntc = DarknetTelescope("NT-C", self.ntc_prefix)
        # The university assigned the top half (/33) of NT-C's /32.
        self.ntc.assign(self.ntc_prefix.subnet_at(1, 33))
        #: Telescope name -> its capturer, in the fixed NT-A/B/C order.
        self.capturers = {
            "NT-A": self.telescope.capturer,
            "NT-B": self.ntb.capturer,
            "NT-C": self.ntc.capturer,
        }

        # -- scanner population ---------------------------------------------
        source_scale = cfg.source_scale
        if source_scale is None:
            source_scale = min(0.2, max(0.01, 400.0 * cfg.volume_scale))
        spec = PopulationSpec(
            volume_scale=cfg.volume_scale, n_tail=cfg.n_tail,
            source_scale=source_scale,
            **cfg.population_overrides,
        )
        self.agents = build_population(self.fabric, spec, rng_population)
        self._attach_ambient(rng_ambient)
        # The reverse-DNS walker needs to know which tree to walk: point it
        # at the telescope's covering /32 (where H_RDNS's PTRs will appear).
        from repro.scanners.strategies import RdnsWalkerStrategy

        for agent in self.agents:
            for strategy in agent.strategies:
                if isinstance(strategy, RdnsWalkerStrategy):
                    strategy.watched.append(self.nta_covering)

        # -- honeyprefix placement + schedule --------------------------------
        self.honeyprefixes: dict[str, Honeyprefix] = {}
        self._placement_rng = rng_placement
        self._placed: set[int] = set()
        self._schedule_deployments()
        self._schedule_hitlist_cycles()

        # Stable ground-truth agent ids: build order is deterministic under
        # a fixed seed, so enumeration order is too.  Assigned once the
        # population is final (ambient and local agents included).
        for i, agent in enumerate(self.agents):
            agent.agent_id = i

        self._last_poll = 0.0

    # -- hitlist candidate helper ------------------------------------------

    def _announced_low_candidates(self, since: float, until: float):
        """Hitlist candidate source: ::1 of newly announced prefixes.

        The real hitlist seeds from many public sources; newly routed
        prefixes' first addresses are among the classic candidates, and are
        how H_UDP's ::1 landed on the ICMP list without having a domain.
        """
        for prefix in self.fabric.collectors.new_prefixes(since, until):
            yield prefix.network | 1

    # -- ambient scanning of the passive telescopes ---------------------------

    def _attach_ambient(self, rng: np.random.Generator) -> None:
        """Give the long-lived NT-B/NT-C prefixes their background scanners.

        NT-C receives ~30% of all captured traffic, mostly from a
        Google-Cloud-style heavy pinger; NT-B's /48 sees a trickle.  The
        shared heavy hitters also probe both, producing the §5.1 finding
        that overlapping sources carry almost all traffic.
        """
        cfg = self.config
        scale = cfg.volume_scale
        cloud = CATEGORY_PROFILES[AsCategory.HOSTING_CLOUD]
        re_profile = CATEGORY_PROFILES[AsCategory.RESEARCH_EDUCATION]
        by_name = {a.identity.as_name: a for a in self.agents}

        # Google-Cloud-style: NT-C's dominant source.
        google_prefix = IPv6Prefix.parse("2600:1900::/28")
        google = ScannerAgent(
            ScannerIdentity(
                asn=396982, as_name="GOOGLE-CLOUD",
                category=AsCategory.HOSTING_CLOUD, country="US",
                source_prefix=google_prefix,
                allocation=AllocationMode.PER_SESSION,
            ),
            [
                AmbientScanner(self.ntc_prefix, cloud,
                               rate=600_000 * scale, low_weight=0.6),
                BgpWatcher(self.fabric.collectors, cloud,
                           min_collectors=10,
                           peak_rate=25_000 * scale,
                           floor_rate=2_000 * scale,
                           low_weight=0.9),
            ],
            rng=spawn_rngs(rng, 1)[0],
        )
        self.fabric.asdb.register(AsRecord(
            396982, "GOOGLE-CLOUD", AsCategory.HOSTING_CLOUD, "US"
        ))
        self.fabric.prefix2as.add(google_prefix, 396982)
        self.fabric.geodb.add(google_prefix, "US")
        self.agents.append(google)

        # Shared heavy hitters probe the passive telescopes too.
        ambient_plan = [
            ("AMAZON-02", self.ntc_prefix, 150_000 * scale, cloud, 0.6),
            ("AMAZON-AES", self.ntc_prefix, 8_000 * scale, cloud, 0.6),
            ("HURRICANE", self.ntc_prefix, 4_000 * scale, cloud, 0.6),
            ("SHADOWSERVER", self.ntc_prefix, 3_000 * scale,
             CATEGORY_PROFILES[AsCategory.INTERNET_SCANNER], 0.5),
            ("INTERNET-MEASUREMENT", self.ntc_prefix, 3_000 * scale,
             CATEGORY_PROFILES[AsCategory.INTERNET_SCANNER], 0.5),
            ("CNGI-CERNET", self.ntc_prefix, 120_000 * scale, re_profile, 0.05),
            ("ALPHASTRIKE-LABS", self.ntc_prefix, 6_000 * scale,
             CATEGORY_PROFILES[AsCategory.INTERNET_SCANNER], 0.4),
            ("AMAZON-02", self.ntb_prefix, 500 * scale, cloud, 0.6),
            ("ALPHASTRIKE-LABS", self.ntb_prefix, 250 * scale,
             CATEGORY_PROFILES[AsCategory.INTERNET_SCANNER], 0.4),
            ("CNGI-CERNET", self.ntb_prefix, 200 * scale, re_profile, 0.05),
        ]
        for name, prefix, rate, profile, low_weight in ambient_plan:
            agent = by_name.get(name)
            if agent is not None:
                agent.strategies.append(AmbientScanner(
                    prefix, profile, rate=rate, low_weight=low_weight,
                ))

        # A slice of NT-A's tail also probes NT-C at trickle rates, giving
        # the ~0.1-0.2 Jaccard overlap of §5.1.
        tail_agents = [a for a in self.agents
                       if a.identity.as_name.startswith("TAIL-AS")]
        for agent in tail_agents[:20]:
            agent.strategies.append(AmbientScanner(
                self.ntc_prefix,
                CATEGORY_PROFILES[agent.identity.category],
                rate=float(rng.uniform(100, 600)) * scale,
                low_weight=0.5,
            ))

        # Telescope-local tails: sources seen at only one telescope.
        for i in range(60):
            prefix = IPv6Prefix.parse("2a10::/13").subnet_at(i, 32)
            asn = 420_000 + i
            category = (AsCategory.HOSTING_CLOUD if i % 3 else
                        AsCategory.ISP_TELECOM)
            self.fabric.asdb.register(AsRecord(
                asn, f"NTC-LOCAL-AS{asn}", category, "US" if i % 2 else "CN"
            ))
            self.fabric.prefix2as.add(prefix, asn)
            self.fabric.geodb.add(prefix, "US" if i % 2 else "CN")
            self.agents.append(ScannerAgent(
                ScannerIdentity(
                    asn=asn, as_name=f"NTC-LOCAL-AS{asn}",
                    category=category, country="US" if i % 2 else "CN",
                    source_prefix=prefix,
                    allocation=AllocationMode.FIXED,
                ),
                [AmbientScanner(
                    self.ntc_prefix,
                    CATEGORY_PROFILES[category],
                    rate=float(rng.uniform(500, 4_000)) * scale,
                    low_weight=0.5,
                )],
                rng=spawn_rngs(rng, 1)[0],
            ))
        for i in range(12):
            prefix = IPv6Prefix.parse("2a05:4000::/22").subnet_at(i, 32)
            asn = 430_000 + i
            self.fabric.asdb.register(AsRecord(
                asn, f"NTB-LOCAL-AS{asn}", AsCategory.ISP_TELECOM, "IE"
            ))
            self.fabric.prefix2as.add(prefix, asn)
            self.fabric.geodb.add(prefix, "IE")
            self.agents.append(ScannerAgent(
                ScannerIdentity(
                    asn=asn, as_name=f"NTB-LOCAL-AS{asn}",
                    category=AsCategory.ISP_TELECOM, country="IE",
                    source_prefix=prefix,
                    allocation=AllocationMode.FIXED,
                ),
                [AmbientScanner(
                    self.ntb_prefix,
                    CATEGORY_PROFILES[AsCategory.ISP_TELECOM],
                    rate=float(rng.uniform(20, 120)) * scale,
                    low_weight=0.5,
                )],
                rng=spawn_rngs(rng, 1)[0],
            ))

        if self.config.include_sweeper:
            # The one wide scanner sweeping NT-A's covering /32 (Fig. 9).
            sweep_prefix = IPv6Prefix.parse("2001:678:aaa::/48")
            self.fabric.asdb.register(AsRecord(
                450_001, "WIDE-SWEEPER", AsCategory.INTERNET_SCANNER, "NL"
            ))
            self.fabric.prefix2as.add(sweep_prefix, 450_001)
            self.fabric.geodb.add(sweep_prefix, "NL")
            self.agents.append(ScannerAgent(
                ScannerIdentity(
                    asn=450_001, as_name="WIDE-SWEEPER",
                    category=AsCategory.INTERNET_SCANNER, country="NL",
                    source_prefix=sweep_prefix,
                    allocation=AllocationMode.FIXED,
                ),
                [CoveringSweeper(
                    self.nta_covering,
                    CATEGORY_PROFILES[AsCategory.INTERNET_SCANNER],
                    rate=37_000 * self.config.volume_scale,
                    low_bias=0.5,
                )],
                rng=spawn_rngs(rng, 1)[0],
            ))

    # -- honeyprefix placement -------------------------------------------------

    def _pick_slot(self) -> IPv6Prefix:
        """Pick a random unused /48 in the upper half of NT-A's /32."""
        while True:
            idx = int(self._placement_rng.integers(32_768, 65_536))
            if idx < 5 or idx in self._placed:
                continue
            self._placed.add(idx)
            return self.nta_covering.subnet_at(idx, 48)

    def _schedule_deployments(self) -> None:
        cfg = self.config
        configs = {c.name: c for c in standard_configs(cfg.include_rdns)}

        phase1 = ["H_Alias", "H_TCP", "H_UDP", "H_BGP1", "H_BGP2", "H_BGP3"]
        phase2 = ["H_Com", "H_Org/net", "H_Combined"]
        phase3 = ["H_TPot1", "H_TPot2"]
        if cfg.include_rdns:
            phase1.append("H_RDNS")

        def deploy_at(name: str, day: float) -> None:
            config = configs[name]
            at = day * DAY
            slot = self._pick_slot()

            def action(config=config, slot=slot, at=at, name=name):
                hp = self.telescope.deploy(config, slot, at=self.engine.now)
                self.honeyprefixes[name] = hp
                self._schedule_triggers(name, hp)

            self.engine.schedule(at, action, label=f"deploy {name}")

        for i, name in enumerate(phase1):
            deploy_at(name, cfg.phase1_day + 0.2 * i)
        for i, name in enumerate(phase2):
            deploy_at(name, cfg.phase2_day + 0.2 * i)
        for i, name in enumerate(phase3):
            deploy_at(name, cfg.phase3_day + 0.3 * i)
        for i, length in enumerate(range(49, 65)):
            deploy_at(f"H_Specific/{length}",
                      cfg.specific_start_day + 0.5 * i)

    def _schedule_triggers(self, name: str, hp: Honeyprefix) -> None:
        """Schedule the honeyprefix's later triggers per the paper's timing."""
        cfg = self.config
        horizon = cfg.duration_days * DAY
        deployed = hp.deployed_at

        def maybe(day_offset: float, action, label: str) -> None:
            at = deployed + day_offset * DAY
            if at < horizon:
                self.engine.schedule(at, action, label=label)

        if hp.config.tpot:
            maybe(cfg.tpot_hitlist_offset_days,
                  lambda hp=hp: self.telescope.insert_hitlist(
                      hp, self.engine.now),
                  f"hitlist {name}")
            maybe(cfg.tpot_tls_offset_days,
                  lambda hp=hp: self.telescope.issue_tls(hp, self.engine.now),
                  f"tls {name}")
        elif hp.config.tls_root:
            maybe(cfg.tls_offset_days,
                  lambda hp=hp: self.telescope.issue_tls(hp, self.engine.now),
                  f"tls {name}")
        if name == "H_UDP":
            maybe(cfg.udp_hitlist_offset_days,
                  lambda hp=hp: self.telescope.insert_hitlist(
                      hp, self.engine.now),
                  f"hitlist {name}")
        if name in ("H_BGP2", "H_BGP3"):
            maybe(cfg.withdraw_after_days,
                  lambda hp=hp: self._withdraw(hp),
                  f"withdraw {name}")

    def _withdraw(self, hp: Honeyprefix) -> None:
        """Retract a honeyprefix's announcement; scanners react in hours."""
        at = self.engine.now
        self.telescope.withdraw(hp, at)
        for agent in self.agents:
            reaction = at + float(
                self.rng.uniform(1 * HOUR, 8 * HOUR)
            )
            agent.cancel_prefix(hp.announced_prefix, reaction)
        # Hitlist compilers re-probe quickly and delist the dead space,
        # which stops hitlist-driven pinging of the prefix's addresses.
        self.engine.schedule_in(
            6 * HOUR,
            lambda: self.fabric.hitlist.run_cycle(self.engine.now),
            label="hitlist revalidation after withdrawal",
        )

    def _schedule_hitlist_cycles(self) -> None:
        cfg = self.config
        day = cfg.hitlist_first_cycle_day
        while day <= cfg.duration_days:
            self.engine.schedule(
                day * DAY,
                lambda: self.fabric.hitlist.run_cycle(self.engine.now),
                label="hitlist cycle",
            )
            day += cfg.hitlist_cycle_days

    # -- packet dispatch ---------------------------------------------------------

    def dispatch_batch(self, batch: PacketBatch) -> int:
        """Route a whole emission batch to whichever telescopes own it;
        returns its row count.

        Telescope membership and the live-/48 exclusion are mask
        operations on ``dst_hi`` (every routed prefix here is /48 or
        shorter, so the low half never matters), and
        :class:`DispatchCounters` update from mask sums.

        Rows are released as soon as nothing needs them.  The batch goes
        once :meth:`dispatch_parts` has split it (when the caller keeps no
        reference of its own, as :meth:`run_day` keeps none).  Each
        telescope's sub-batch is referenced only by its handler's
        argument, so it goes when the handler returns, or earlier if the
        handler lets its argument go once it has copied the rows into
        its capture store.
        """
        n = len(batch)
        if n == 0:
            return 0
        with stage("scenario.dispatch", packets=n):
            parts = self.dispatch_parts(batch)
            del batch
            parts.reverse()
            while parts:
                handler = parts[-1][0]
                # No name here holds the sub-batch: only the call does.
                handler(parts.pop()[1])
        return n

    def dispatch_parts(
        self, batch: PacketBatch,
    ) -> list[tuple]:
        """Partition one batch into per-telescope sub-batches.

        Computes every membership mask over the shared ``dst_hi`` column,
        updates :class:`DispatchCounters` from the mask sums, and returns
        ``(handler, sub_batch)`` pairs in fixed NT-A, NT-B, NT-C order,
        which :meth:`dispatch_batch` then delivers.  Counters are settled
        *here*, before any handler runs.
        """
        nta = batch.mask_dst_in(self.nta_covering)
        shift = np.uint64(16)
        hi48 = (batch.dst_hi >> shift) << shift
        live = nta & np.isin(hi48, self._live_keys_hi)
        nta &= ~live
        ntb = batch.mask_dst_in(self.ntb_prefix)
        ntc = batch.mask_dst_in(self.ntc_prefix)
        self.counters.live_dropped += int(live.sum())
        self.counters.nta += int(nta.sum())
        self.counters.ntb += int(ntb.sum())
        self.counters.ntc += int(ntc.sum())
        self.counters.unrouted += int((~(nta | live | ntb | ntc)).sum())
        parts = []
        if nta.any():
            parts.append((self.telescope.handle_batch, batch.select(nta)))
        if ntb.any():
            parts.append((self.ntb.handle_batch, batch.select(ntb)))
        if ntc.any():
            parts.append((self.ntc.handle_batch, batch.select(ntc)))
        return parts

    # -- the daily loop -------------------------------------------------------------

    def begin_day(self, day: int) -> tuple[float, float]:
        """Advance the engine through day ``day``'s events.

        Returns the ``(day_start, day_end)`` window.  A simulated day
        (:meth:`run_day`) and a replayed one (:meth:`replay_day`) both open
        here, so a resumed run processes the identical event sequence, the
        no-op boundary tick included.
        """
        day_start = day * DAY
        day_end = (day + 1) * DAY
        # A no-op day-boundary tick: keeps the engine's per-label event
        # metrics populated (and day boundaries visible in them) even on
        # short runs where no deployment or hitlist event fires.  Touches
        # no RNG, so determinism is unaffected.
        self.engine.schedule(day_end, lambda: None, label="day boundary")
        self.engine.run_until(day_end)
        return day_start, day_end

    def run_day(self, day: int) -> int:
        """Simulate day ``day``; returns the number of packets dispatched.

        Runs the engine through the day, then every agent's poll and plan
        in agent order, then every agent's emission into its rows of one
        day batch, stamped with its origin, then one dispatch of the
        whole population's rows."""
        with stage("scenario.run_day", day=day) as span:
            emitted = self._run_day_impl(day)
        span.set(emitted=emitted)
        get_journal().emit("day", day=day, emitted=emitted)
        return emitted

    def _run_day_impl(self, day: int) -> int:
        day_start, day_end = self.begin_day(day)
        # No frame here keeps the day batch: dispatch_batch holds the only
        # reference and drops it once the batch is split.
        emitted = self.dispatch_batch(self._emit_day(day_start, day_end))
        self._last_poll = day_end
        return emitted

    def _emit_day(self, day_start: float, day_end: float) -> PacketBatch:
        """Every agent's poll and plan, in agent order, then one set of day
        columns that each agent emits its rows into, in agent order.

        An agent's plan and rows depend on its own streams only, and only
        polls write journal records, so planning every agent before any
        emits changes no draw and no record.  The ICMP normalization runs
        once over the whole day.
        """
        plans = []
        for agent in self.agents:
            agent.poll_feeds(self._last_poll, day_end)
            plans.append(agent.plan_day(day_start, day_end))
        sizes = [sum(n for _, n, _, _ in plan[0]) for plan in plans]
        day = PacketBatch.allocate(sum(sizes), origin=True)
        start = 0
        for agent, plan, size in zip(self.agents, plans, sizes):
            agent.emit_day_batch(day_start, day_end, plan,
                                 day.rows(start, start + size))
            start += size
        normalize_probes(day)
        return day

    def replay_day(self, day: int) -> None:
        """Fast-forward one day without emitting or dispatching packets.

        Runs the engine exactly as :meth:`run_day` does, then replays every
        agent's poll and per-day plan draws
        (:meth:`~repro.scanners.agent.ScannerAgent.replay_day`) in the
        order :meth:`run_day` polls and emits them, leaving every RNG
        stream, session list, and engine structure in the state a real run
        of this day would have left them — the checkpoint resume path.
        Nothing is dispatched: dispatch draws from no agent stream.
        Callers suppress the journal around replay (``use_journal(None)``):
        every record this day would emit is already carried by the
        checkpoint.
        """
        day_start, day_end = self.begin_day(day)
        for agent in self.agents:
            agent.poll_feeds(self._last_poll, day_end)
            agent.replay_day(day_start, day_end)
        self._last_poll = day_end

    def run(self) -> None:
        """Run the whole configured window."""
        for day in range(self.config.duration_days):
            self.run_day(day)
