package ran

import (
	"fmt"
	"math"
	"sort"

	"prism5g/internal/mobility"
	"prism5g/internal/phy"
	"prism5g/internal/rng"
	"prism5g/internal/spectrum"
)

// EventType enumerates the RRC carrier-aggregation signaling events the
// paper's predictor consumes (Table 3 "Signaling" features).
type EventType uint8

const (
	// EvSCellAdd configures a new SCell (activation follows after a delay).
	EvSCellAdd EventType = iota
	// EvSCellRemove releases an SCell.
	EvSCellRemove
	// EvSCellActivate marks the SCell starting to carry data.
	EvSCellActivate
	// EvPCellSwitch is a handover / PCell change.
	EvPCellSwitch
	// EvRadioLinkFailure drops the whole connection.
	EvRadioLinkFailure
)

// String implements fmt.Stringer.
func (e EventType) String() string {
	switch e {
	case EvSCellAdd:
		return "scell-add"
	case EvSCellRemove:
		return "scell-remove"
	case EvSCellActivate:
		return "scell-activate"
	case EvPCellSwitch:
		return "pcell-switch"
	default:
		return "rlf"
	}
}

// Event is one RRC signaling event with its timestamp.
type Event struct {
	Type EventType
	Cell *Cell
	At   float64 // seconds since engine start
}

// String implements fmt.Stringer.
func (e Event) String() string {
	id := "-"
	if e.Cell != nil {
		id = e.Cell.ID()
	}
	return fmt.Sprintf("%.3fs %s %s", e.At, e.Type, id)
}

// ServingCC is one configured component carrier of the UE's CA set.
type ServingCC struct {
	Cell    *Cell
	Link    *phy.Link
	IsPCell bool
	// ConfiguredAt is when the RRC add was signaled.
	ConfiguredAt float64
	// ActiveAt is when the carrier starts carrying data (the activation
	// delay between these two is what gives a CA-aware predictor its
	// lead at transitions).
	ActiveAt float64
	// belowSince counts consecutive below-threshold evaluations.
	belowSince int
}

// Active reports whether the CC carries data at time t.
func (s *ServingCC) Active(t float64) bool { return t >= s.ActiveAt }

// The engine's RRC policy, calibrated once for the study (DESIGN §7).
const (
	// pcellMinRSRP is the accessibility threshold (dBm) for PCell
	// selection; a PCell 4 dB below it fails the radio link.
	pcellMinRSRP = -118.0
	// handoverHysteresisDB is the margin a neighbour must exceed.
	handoverHysteresisDB = 9.0
	// handoverTTT is the consecutive evaluations (time-to-trigger).
	handoverTTT = 12
	// scellAddRSRP is the A4-style SCell addition threshold (dBm).
	scellAddRSRP = -106.0
	// scellRemoveRSRP is the A2-style SCell release threshold (dBm).
	scellRemoveRSRP = -116.0
	// scellRemoveTTT is the consecutive below-threshold evaluations
	// before release.
	scellRemoveTTT = 10
	// activationDelayS is the config-to-traffic SCell activation delay.
	activationDelayS = 0.15
	// addIntervalS is the minimum spacing between successive SCell adds.
	addIntervalS = 1.6
	// evalIntervalS is the measurement/decision cadence.
	evalIntervalS = 0.2
	// midBandPreferenceDB biases PCell choice toward capacity layers
	// when their signal is adequate.
	midBandPreferenceDB = 12.0
)

// Engine is the per-UE RRC carrier-aggregation state machine.
type Engine struct {
	Net *Network
	UE  UE

	// tech selects 4G or 5G operation.
	tech   spectrum.Tech
	pcell  *ServingCC
	scells []*ServingCC
	links  map[int]*phy.Link
	sites  map[int]*phy.SiteState
	bands  map[siteBand]*phy.BandState
	src    *rng.Source
	// inr memoizes co-channel interference terms per channel index
	// (Cell.chanIdx); see coChannelINR.
	inr []inrMemo
	// cands and ms are evaluate's candidate and measurement buffers,
	// reused across rounds; nothing keeps them past one round.
	cands []*Cell
	ms    []measurement

	// bandLock restricts usable bands (the paper's [C1] band locking via
	// operator service codes). Empty means unrestricted.
	bandLock map[string]bool
	// chanLock restricts usable channels by channel ID ("n41^a"),
	// the finer-grained lock used for the single-channel experiments.
	chanLock map[string]bool

	now           float64
	sinceEval     float64
	lastAddAt     float64
	lastHOAt      float64
	hoCandidate   int // PCI of pending handover target
	hoStreak      int
	eventBacklog  []Event
	connectedOnce bool
}

// siteBand keys the per-(site, band) shadowing deviations.
type siteBand struct {
	site int
	band string
}

// NewEngine creates a CA engine for a UE of the given technology (4G or
// 5G) on the network.
func NewEngine(net *Network, ue UE, tech spectrum.Tech, src *rng.Source) *Engine {
	return &Engine{
		Net:       net,
		UE:        ue,
		tech:      tech,
		links:     map[int]*phy.Link{},
		sites:     map[int]*phy.SiteState{},
		bands:     map[siteBand]*phy.BandState{},
		src:       src.Split(),
		bandLock:  map[string]bool{},
		chanLock:  map[string]bool{},
		lastAddAt: -1e9,
		lastHOAt:  -1e9,
	}
}

// LockBands restricts the engine to the given band names (e.g. "n41"),
// mirroring the paper's band-locking methodology. Passing none clears the
// lock.
func (e *Engine) LockBands(names ...string) {
	e.bandLock = map[string]bool{}
	for _, n := range names {
		e.bandLock[n] = true
	}
}

// LockChannels restricts the engine to the given channel IDs (e.g.
// "n41^a"), the single-channel variant of band locking. Passing none clears
// the lock.
func (e *Engine) LockChannels(ids ...string) {
	e.chanLock = map[string]bool{}
	for _, id := range ids {
		e.chanLock[id] = true
	}
}

// allowed reports whether the band/channel locks permit the cell.
func (e *Engine) allowed(c *Cell) bool {
	if len(e.chanLock) > 0 && !e.chanLock[c.Chan.ID()] {
		return false
	}
	if len(e.bandLock) == 0 {
		return true
	}
	return e.bandLock[c.Chan.Band.Name]
}

// siteState returns (creating lazily) the shared propagation state toward a
// site.
func (e *Engine) siteState(site int, dist float64) *phy.SiteState {
	st, ok := e.sites[site]
	if !ok {
		st = phy.NewSiteState(e.src, dist)
		e.sites[site] = st
	}
	return st
}

// bandState returns (creating lazily) the shared per-(site, band) deviation.
func (e *Engine) bandState(site int, band string) *phy.BandState {
	key := siteBand{site, band}
	bs, ok := e.bands[key]
	if !ok {
		bs = phy.NewBandState(e.src)
		e.bands[key] = bs
	}
	return bs
}

// link returns (creating lazily) the shadowed radio link toward a cell.
func (e *Engine) link(c *Cell, dist float64) *phy.Link {
	l, ok := e.links[c.PCI]
	if !ok {
		l = phy.NewLink(e.src, c.FreqGHz(), c.Chan.SCSKHz,
			e.siteState(c.Site, dist), e.bandState(c.Site, c.Chan.Band.Name))
		e.links[c.PCI] = l
	}
	return l
}

// Now returns the engine clock in seconds.
func (e *Engine) Now() float64 { return e.now }

// PCell returns the current primary cell, or nil when not connected.
func (e *Engine) PCell() *ServingCC { return e.pcell }

// SCells returns the configured secondary cells in activation order.
func (e *Engine) SCells() []*ServingCC { return e.scells }

// Serving returns PCell followed by SCells.
func (e *Engine) Serving() []*ServingCC {
	if e.pcell == nil {
		return nil
	}
	out := make([]*ServingCC, 0, 1+len(e.scells))
	out = append(out, e.pcell)
	return append(out, e.scells...)
}

// Combo returns the current ordered channel combination.
func (e *Engine) Combo() spectrum.Combo {
	var c spectrum.Combo
	for _, s := range e.Serving() {
		c = append(c, s.Cell.Chan)
	}
	return c
}

// measure evaluates the link radio state of a cell from position p.
// Interference comes from co-channel cells at other sites (frequency
// reuse 1): each contributes its mean received power scaled by its load.
func (e *Engine) measure(c *Cell, p mobility.Point, indoor bool) phy.RadioState {
	d := c.Pos.Dist(p)
	l := e.link(c, d)
	return l.Evaluate(d, indoor, e.coChannelINR(c, p, indoor))
}

// beyondCutoff marks, in an inrMemo, a cell too far from the UE to
// interfere. Real terms are positive.
const beyondCutoff = -1.0

// inrMemo caches, for one channel, the load-free interference term of each
// of the channel's cells toward one UE position: the linear mean received
// power over noise, 10^((rx-noise)/10), or beyondCutoff.
type inrMemo struct {
	p      mobility.Point
	indoor bool
	terms  []float64 // parallel to Network.byChan[chanIdx]; nil until first use
}

// refresh recomputes the terms of the channel's cells for a UE at p.
func (m *inrMemo) refresh(cells []*Cell, p mobility.Point, indoor bool) {
	if m.terms == nil {
		m.terms = make([]float64, len(cells))
	}
	m.p, m.indoor = p, indoor
	// Every cell of a channel shares its frequency and sub-carrier spacing.
	noise := phy.NoiseDBm(cells[0].Chan.SCSKHz)
	f := cells[0].FreqGHz()
	tx := phy.TxPowerPerREdBm(f)
	var pen float64
	if indoor {
		pen = phy.IndoorPenetrationDB(f)
	}
	for i, other := range cells {
		d := other.Pos.Dist(p)
		if d > other.CoverageRadiusM()*1.5 {
			m.terms[i] = beyondCutoff
			continue
		}
		pl := phy.PathLossNLOS(d, f)
		if indoor {
			pl += pen
		}
		rx := tx - pl
		m.terms[i] = math.Pow(10, (rx-noise)/10)
	}
}

// coChannelINR returns the interference-to-noise ratio (linear) a UE at p
// sees on cell c's channel from co-channel cells at other sites, using the
// mean (unshadowed) NLOS path loss weighted by each interferer's load. This
// is what makes urban SINR interference-limited: near the serving site the
// ratio is tiny, at the cell edge it dominates.
//
// The load-free terms depend only on the channel and the UE position, so
// the engine keeps them per channel and recomputes them only when p or
// indoor changes; a step measures about 19 cells of one channel from one
// position. The same-site exclusion and the live loads are applied here,
// in the channel's deployment order, so the sum is the same, bit for bit,
// as computing every term afresh.
func (e *Engine) coChannelINR(c *Cell, p mobility.Point, indoor bool) float64 {
	if e.inr == nil {
		e.inr = make([]inrMemo, len(e.Net.byChan))
	}
	cells := e.Net.byChan[c.chanIdx]
	m := &e.inr[c.chanIdx]
	if m.terms == nil || m.p != p || m.indoor != indoor {
		m.refresh(cells, p, indoor)
	}
	inr := 0.0
	for i, other := range cells {
		if t := m.terms[i]; t != beyondCutoff && other.Site != c.Site {
			inr += t * other.Load()
		}
	}
	return inr
}

// pcellScore ranks PCell candidates: RSRP plus a capacity-layer preference
// when the mid-band signal is adequate.
func (e *Engine) pcellScore(c *Cell, rs phy.RadioState) float64 {
	score := rs.RSRPdBm
	if c.Chan.Band.Class() == spectrum.MidBand && c.Chan.Band.Range() == spectrum.FR1 && rs.RSRPdBm > -105 {
		score += midBandPreferenceDB
	}
	// mmWave anchors only with a strong beam (then it is strongly
	// preferred, as operators steer capable UEs onto it); otherwise it
	// is avoided entirely.
	if e.isFR2(c) {
		if rs.RSRPdBm > -95 {
			score += 2 * midBandPreferenceDB
		} else {
			score -= 60
		}
	}
	return score
}

// maxCCs returns the CA depth permitted by plan and modem for the carrier
// mix currently in play.
func (e *Engine) maxCCs(fr2 bool) int {
	if e.tech == spectrum.LTE {
		m := e.Net.Plan.Max4GCCs
		if mm := e.UE.Modem.MaxLTECCs(); mm < m {
			m = mm
		}
		return m
	}
	if fr2 {
		m := e.Net.Plan.Max5GFR2CCs
		if mm := e.UE.Modem.MaxNRCCsFR2(); mm < m {
			m = mm
		}
		return m
	}
	m := e.Net.Plan.Max5GFR1CCs
	if mm := e.UE.Modem.MaxNRCCsFR1(); mm < m {
		m = mm
	}
	return m
}

// Step advances the engine by dt seconds with the UE at p having moved
// movedM meters since the last step. It returns the RRC events emitted
// during this step.
func (e *Engine) Step(p mobility.Point, movedM, dt float64, indoor bool) []Event {
	e.now += dt
	e.sinceEval += dt
	// Advance shared per-site shadowing, per-band deviations, then
	// per-carrier deviations.
	for site, st := range e.sites {
		st.Move(movedM, e.Net.Deploy.Sites[site].Dist(p))
	}
	for _, bs := range e.bands {
		bs.Move(movedM)
	}
	for _, l := range e.links {
		l.Move(movedM)
	}
	if e.sinceEval < evalIntervalS && e.connectedOnce {
		return e.drainEvents()
	}
	e.sinceEval = 0
	e.evaluate(p, indoor)
	return e.drainEvents()
}

func (e *Engine) drainEvents() []Event {
	ev := e.eventBacklog
	e.eventBacklog = nil
	return ev
}

func (e *Engine) emit(t EventType, c *Cell) {
	e.eventBacklog = append(e.eventBacklog, Event{Type: t, Cell: c, At: e.now})
}

// measurement pairs a candidate cell with its measured radio state.
type measurement struct {
	cell *Cell
	rs   phy.RadioState
}

// evaluate runs one RRC measurement/decision round.
func (e *Engine) evaluate(p mobility.Point, indoor bool) {
	e.cands = e.Net.CandidateCells(e.cands[:0], p, e.tech)
	ms := e.ms[:0]
	for _, c := range e.cands {
		if !e.allowed(c) {
			continue
		}
		ms = append(ms, measurement{c, e.measure(c, p, indoor)})
	}
	e.ms = ms
	// --- PCell management ---
	var best *measurement
	bestScore := -1e18
	for i := range ms {
		m := &ms[i]
		if m.rs.RSRPdBm < pcellMinRSRP {
			continue
		}
		if sc := e.pcellScore(m.cell, m.rs); sc > bestScore {
			best, bestScore = m, sc
		}
	}
	if e.pcell != nil {
		curRS := e.measure(e.pcell.Cell, p, indoor)
		if curRS.RSRPdBm < pcellMinRSRP-4 {
			// Radio link failure: drop everything, reselect below.
			e.emit(EvRadioLinkFailure, e.pcell.Cell)
			e.pcell.Cell.Detach()
			for _, s := range e.scells {
				s.Cell.Detach()
			}
			e.pcell = nil
			e.scells = nil
		} else if best != nil && best.cell != e.pcell.Cell {
			curScore := e.pcellScore(e.pcell.Cell, curRS)
			hyst := handoverHysteresisDB
			if best.cell.Site == e.pcell.Cell.Site && curRS.RSRPdBm > -110 {
				// Reshuffling the PCell among co-sited carriers tears
				// down the whole CA set for no coverage gain; require a
				// far larger margin unless the current PCell degrades.
				hyst *= 4
			}
			if bestScore > curScore+hyst {
				if e.hoCandidate == best.cell.PCI {
					e.hoStreak++
				} else {
					e.hoCandidate, e.hoStreak = best.cell.PCI, 1
				}
				if e.hoStreak >= handoverTTT {
					e.handoverTo(best.cell)
					e.hoStreak = 0
				}
			} else {
				e.hoStreak = 0
			}
		} else {
			e.hoStreak = 0
		}
	}
	if e.pcell == nil {
		if best == nil {
			return // out of coverage
		}
		e.pcell = &ServingCC{
			Cell: best.cell, Link: e.links[best.cell.PCI], IsPCell: true,
			ConfiguredAt: e.now, ActiveAt: e.now,
		}
		best.cell.Attach()
		e.emit(EvPCellSwitch, best.cell)
		e.connectedOnce = true
	}
	// --- SCell management ---
	e.manageSCells(ms, p, indoor)
}

// handoverTo switches the PCell, releasing all SCells (as observed: PCell
// change tears down and rebuilds the CA set).
func (e *Engine) handoverTo(c *Cell) {
	for _, s := range e.scells {
		e.emit(EvSCellRemove, s.Cell)
		s.Cell.Detach()
	}
	e.scells = nil
	e.pcell.Cell.Detach()
	e.pcell = &ServingCC{
		Cell: c, Link: e.links[c.PCI], IsPCell: true,
		ConfiguredAt: e.now, ActiveAt: e.now,
	}
	c.Attach()
	e.lastHOAt = e.now
	e.emit(EvPCellSwitch, c)
}

func (e *Engine) manageSCells(ms []measurement, p mobility.Point, indoor bool) {
	if e.pcell == nil {
		return
	}
	// Release weak SCells.
	kept := e.scells[:0]
	for _, s := range e.scells {
		rs := e.measure(s.Cell, p, indoor)
		if rs.RSRPdBm < scellRemoveRSRP {
			s.belowSince++
		} else {
			s.belowSince = 0
		}
		if s.belowSince >= scellRemoveTTT {
			e.emit(EvSCellRemove, s.Cell)
			s.Cell.Detach()
			continue
		}
		kept = append(kept, s)
	}
	e.scells = kept

	// Count current FR1/FR2 CCs.
	countFR2, countFR1 := 0, 0
	serving := map[int]bool{e.pcell.Cell.PCI: true}
	if e.isFR2(e.pcell.Cell) {
		countFR2++
	} else {
		countFR1++
	}
	for _, s := range e.scells {
		serving[s.Cell.PCI] = true
		if e.isFR2(s.Cell) {
			countFR2++
		} else {
			countFR1++
		}
	}

	// Right after a handover the RRC reconfiguration sets up the whole
	// CA set at once; otherwise SCells are added one per interval.
	burst := e.now-e.lastHOAt < 1.0
	if !burst && e.now-e.lastAddAt < addIntervalS {
		return
	}
	// Candidate SCells: co-sited with the PCell (standard deployment),
	// above the add threshold, not already serving.
	var adds []measurement
	for i := range ms {
		m := &ms[i]
		if serving[m.cell.PCI] || m.cell.Site != e.pcell.Cell.Site {
			continue
		}
		if m.rs.RSRPdBm < scellAddRSRP {
			continue
		}
		adds = append(adds, measurement{m.cell, m.rs})
	}
	if len(adds) == 0 {
		return
	}
	// Operators add the widest adequate carrier first.
	sort.Slice(adds, func(i, j int) bool {
		if adds[i].cell.Chan.BandwidthMHz != adds[j].cell.Chan.BandwidthMHz {
			return adds[i].cell.Chan.BandwidthMHz > adds[j].cell.Chan.BandwidthMHz
		}
		return adds[i].rs.RSRPdBm > adds[j].rs.RSRPdBm
	})
	pcellFR2 := e.isFR2(e.pcell.Cell)
	for _, a := range adds {
		fr2 := e.isFR2(a.cell)
		// SA CA does not mix FR1 and FR2 in one cell group (the paper's
		// 8-CC mmWave combos are pure n260/n261 sets).
		if fr2 != pcellFR2 {
			continue
		}
		if fr2 {
			if countFR2 >= e.maxCCs(true) {
				continue
			}
		} else {
			if countFR1 >= e.maxCCs(false) {
				continue
			}
		}
		s := &ServingCC{
			Cell: a.cell, Link: e.links[a.cell.PCI],
			ConfiguredAt: e.now, ActiveAt: e.now + activationDelayS,
		}
		e.scells = append(e.scells, s)
		a.cell.Attach()
		e.emit(EvSCellAdd, a.cell)
		e.emit(EvSCellActivate, a.cell)
		e.lastAddAt = e.now
		if !burst {
			return // one add per interval
		}
		// burst mode: keep adding eligible SCells this evaluation.
		if e.isFR2(a.cell) {
			countFR2++
		} else {
			countFR1++
		}
	}
}

func (e *Engine) isFR2(c *Cell) bool {
	return c.Chan.Band.Tech == spectrum.NR && c.Chan.Band.Range() == spectrum.FR2
}

// Release detaches the engine's serving set from the network's cells.
// Runs that reuse one Network — sequentially across experiment runs, or
// concurrently within a population shard — call it when the UE's campaign
// ends so attach counts never leak into the next run. The engine must not
// be stepped afterwards.
func (e *Engine) Release() {
	if e.pcell != nil {
		e.pcell.Cell.Detach()
		e.pcell = nil
	}
	for _, s := range e.scells {
		s.Cell.Detach()
	}
	e.scells = nil
}
