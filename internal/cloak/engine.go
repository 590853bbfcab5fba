package cloak

import (
	"strconv"

	"rarpred/internal/check"
)

// Mode selects which dependence kinds the mechanism exploits.
type Mode uint8

const (
	// ModeRAW is the original cloaking/bypassing of Moshovos & Sohi
	// (MICRO-30): only store→load dependences are detected and predicted.
	ModeRAW Mode = iota
	// ModeRAWRAR is this paper's combined mechanism: loads are also
	// recorded in the DDT and load→load (RAR) dependences are predicted.
	ModeRAWRAR
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeRAW {
		return "RAW"
	}
	return "RAW+RAR"
}

// Config parameterises an Engine. Zero sizes select unbounded structures.
type Config struct {
	// DDTCapacity bounds the dependence detection table (entries =
	// addresses). 0 is unbounded.
	DDTCapacity int

	// SplitDDT uses separate store and load tables, each of DDTCapacity
	// entries, removing the eviction anomaly of Section 5.6.2.
	SplitDDT bool

	// DPNTSets and DPNTWays shape the PC-indexed prediction table.
	// DPNTSets <= 0 models the infinite DPNT used for accuracy studies.
	DPNTSets, DPNTWays int

	// SFSets and SFWays shape the synonym file. SFSets <= 0 is unbounded.
	SFSets, SFWays int

	Mode       Mode
	Confidence ConfKind
	Merge      MergeKind

	// SelfCheck enables the reference-model oracle and sampled invariant
	// sweeps for this engine even when the package-wide SetSelfCheck
	// gate is off. Checks only read state, so results are unchanged.
	SelfCheck bool
}

// DetectorConfig is the detector half of a Config: the fields that
// decide which dependence each load sees. Engines whose configurations
// map to one DetectorConfig see identical detections.
type DetectorConfig struct {
	Capacity    int  // entries per table; 0 is unbounded
	Split       bool // separate store and load tables (SplitDDT)
	RecordLoads bool // RAR detection; always on for a split detector
}

// DetectorConfig returns cfg's detector half.
func (cfg Config) DetectorConfig() DetectorConfig {
	return DetectorConfig{
		Capacity:    cfg.DDTCapacity,
		Split:       cfg.SplitDDT,
		RecordLoads: cfg.SplitDDT || cfg.Mode == ModeRAWRAR,
	}
}

// String names the detector the way the paper sizes it, e.g.
// "DDT(128, RAR on)" or "SplitDDT(128)"; capacity 0 reads "inf".
func (dc DetectorConfig) String() string {
	size := "inf"
	if dc.Capacity > 0 {
		size = strconv.Itoa(dc.Capacity)
	}
	if dc.Split {
		return "SplitDDT(" + size + ")"
	}
	rar := "off"
	if dc.RecordLoads {
		rar = "on"
	}
	return "DDT(" + size + ", RAR " + rar + ")"
}

// DefaultConfig is the accuracy-study configuration of Section 5.3: a
// 128-entry DDT, infinite DPNT and SF, RAW+RAR mode, 2-bit adaptive
// confidence, incremental merging.
func DefaultConfig() Config {
	return Config{
		DDTCapacity: 128,
		Mode:        ModeRAWRAR,
		Confidence:  Adaptive2Bit,
		Merge:       MergeIncremental,
	}
}

// TimingConfig is the performance-study configuration of Section 5.6.1:
// 128-entry DDT, 8K 2-way DPNT, 1K 2-way synonym file.
func TimingConfig(mode Mode) Config {
	return Config{
		DDTCapacity: 128,
		DPNTSets:    4096,
		DPNTWays:    2,
		SFSets:      512,
		SFWays:      2,
		Mode:        mode,
		Confidence:  Adaptive2Bit,
		Merge:       MergeIncremental,
	}
}

// Stats aggregates engine behaviour over a run. All load counters are
// counts of dynamic (committed) loads.
type Stats struct {
	Loads  uint64
	Stores uint64

	// Detection: loads that experienced a visible dependence this
	// instance (the Figure 5 metric).
	LoadsWithRAW uint64
	LoadsWithRAR uint64

	// Prediction outcomes, attributed to the kind of the producer that
	// supplied the speculative value (the Figure 6 metrics).
	UsedRAW    uint64 // speculative value used, produced by a store
	UsedRAR    uint64 // speculative value used, produced by a load
	CorrectRAW uint64
	CorrectRAR uint64
	WrongRAW   uint64
	WrongRAR   uint64

	// ShadowChecks counts confidence-rebuilding verifications that did
	// not supply a value to the pipeline.
	ShadowChecks uint64

	// NoValue counts consumer predictions that found no full SF entry.
	NoValue uint64
}

// Covered returns the number of loads that received a correct speculative
// value (any kind).
func (s Stats) Covered() uint64 { return s.CorrectRAW + s.CorrectRAR }

// Mispredicted returns the number of loads that used a wrong speculative
// value (any kind).
func (s Stats) Mispredicted() uint64 { return s.WrongRAW + s.WrongRAR }

// LoadOutcome describes what the engine did for one dynamic load; the
// experiment harness correlates it with value/address locality and value
// prediction.
type LoadOutcome struct {
	// Dep is the dependence detected for this instance (DepNone if no
	// dependence was visible in the DDT).
	Dep DepKind
	// Used reports that a speculative value was supplied.
	Used bool
	// Correct reports that the supplied value matched memory (valid only
	// when Used).
	Correct bool
	// Kind is the producer kind of the supplied value (valid when Used).
	Kind DepKind
}

// Detection is one load's detector output: the kind of the dependence
// visible in the DDT (DepNone if none) and the PC of its source. It is
// all the prediction stage needs from detection, and it depends only on
// the committed address stream, so one detector's detections can feed
// every predictor that shares its DetectorConfig.
type Detection struct {
	Kind     DepKind
	SourcePC uint32
}

// Engine is the functional cloaking/bypassing accuracy model: it consumes
// the committed load/store stream in program order and tracks coverage
// and misspeculation exactly as Sections 5.2–5.5 measure them. It is a
// detector stage (the DDT, or the split DDT) feeding a prediction stage
// (the DPNT, the synonym file and the Stats). The timing simulator uses
// the same DDT/DPNT/SynonymFile primitives but drives them from
// pipeline stages instead.
type Engine struct {
	cfg      Config
	detector Detector
	// p is held by value so the per-load path reaches the prediction
	// tables with no pointer hop beyond the engine's own.
	p Predictor
}

// New returns an engine for the configuration.
func New(cfg Config) *Engine {
	sc := cfg.SelfCheck || SelfCheckEnabled()
	e := &Engine{cfg: cfg, detector: newDetector(cfg.DetectorConfig(), sc)}
	e.p.init(cfg, sc)
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.p.stats }

// DPNT exposes the prediction table (for tests and the timing model).
func (e *Engine) DPNT() *DPNT { return e.p.dpnt }

// SF exposes the synonym file (for tests and the timing model).
func (e *Engine) SF() *SynonymFile { return e.p.sf }

// Store processes one committed store in program order.
func (e *Engine) Store(pc, addr, value uint32) {
	pred, havePred := e.p.dpnt.Lookup(pc)
	e.StoreWith(pc, addr, value, pred, havePred)
}

// StoreWith is Store with the DPNT prediction supplied by the caller.
// The timing model consults the table for scheduling immediately before
// handing the access to the engine; passing the result in avoids a
// second probe (the prediction must come from DPNT().Lookup(pc) with no
// intervening engine mutation).
func (e *Engine) StoreWith(pc, addr, value uint32, pred Prediction, havePred bool) {
	e.p.storeWith(pc, value, pred, havePred)
	// Detect (at commit): record the store; this also breaks RAR chains
	// through addr.
	e.detector.Store(addr, pc)
}

// Load processes one committed load in program order and reports what the
// mechanism did for it.
func (e *Engine) Load(pc, addr, value uint32) LoadOutcome {
	// Predict: the DPNT is consulted with the state established by
	// *earlier* instances (Figure 4(b) actions 5–8).
	pred, havePred := e.p.dpnt.Lookup(pc)
	return e.LoadWith(pc, addr, value, pred, havePred)
}

// LoadWith is Load with the DPNT prediction supplied by the caller (same
// contract as StoreWith). Detection runs first: its result depends only
// on the committed address stream, never on the prediction, so this is
// the order-independent composition of the two stages.
func (e *Engine) LoadWith(pc, addr, value uint32, pred Prediction, havePred bool) LoadOutcome {
	dep, _ := e.detector.Load(addr, pc)
	return e.p.loadWith(pc, value, pred, havePred, Detection{Kind: dep.Kind, SourcePC: dep.SourcePC})
}

// Predictor is the prediction stage of the mechanism: the DPNT, the
// synonym file and the Stats, trained by detections that a Detector
// computed. An Engine drives one from its own detector; a replay pass
// computes each distinct DetectorConfig's detections once and feeds
// them to every Predictor configured with it.
type Predictor struct {
	dpnt  *DPNT
	sf    *SynonymFile
	stats Stats

	sc     bool
	scSamp check.Sampler
}

// NewPredictor returns the prediction stage of cfg; the detector fields
// (DDTCapacity, SplitDDT and the recording half of Mode) are the
// caller's to honour when it computes the detections.
func NewPredictor(cfg Config) *Predictor {
	p := &Predictor{}
	p.init(cfg, cfg.SelfCheck || SelfCheckEnabled())
	return p
}

func (p *Predictor) init(cfg Config, sc bool) {
	p.dpnt = NewDPNT(cfg.DPNTSets, cfg.DPNTWays, cfg.Confidence, cfg.Merge)
	p.sf = NewSynonymFile(cfg.SFSets, cfg.SFWays)
	if sc {
		p.sc = true
		p.scSamp = check.NewSampler(engineSweepInterval)
	}
}

// Stats returns a snapshot of the accumulated statistics.
func (p *Predictor) Stats() Stats { return p.stats }

// Store processes one committed store in program order (its detector
// must see the same store).
func (p *Predictor) Store(pc, value uint32) {
	pred, havePred := p.dpnt.Lookup(pc)
	p.storeWith(pc, value, pred, havePred)
}

// Load processes one committed load in program order, given the
// detection its detector reported for this very load, and reports what
// the mechanism did for it.
func (p *Predictor) Load(pc, value uint32, d Detection) LoadOutcome {
	pred, havePred := p.dpnt.Lookup(pc)
	return p.loadWith(pc, value, pred, havePred, d)
}

func (p *Predictor) storeWith(pc, value uint32, pred Prediction, havePred bool) {
	p.stats.Stores++
	// Predict: a store marked as a producer deposits its value in the
	// synonym file so predicted consumers can name it.
	if havePred && pred.Producer {
		p.sf.Write(pred.Synonym, value, DepRAW, pc)
	}
}

func (p *Predictor) loadWith(pc, value uint32, pred Prediction, havePred bool, d Detection) LoadOutcome {
	p.stats.Loads++
	out := LoadOutcome{Dep: d.Kind}
	if havePred && (pred.Consumer || pred.ConsumerShadow) {
		if entry, ok := p.sf.Read(pred.Synonym); ok && entry.Full {
			correct := entry.Value == value
			if pred.Consumer {
				out.Used = true
				out.Correct = correct
				out.Kind = entry.Kind
				if entry.Kind == DepRAR {
					p.stats.UsedRAR++
					if correct {
						p.stats.CorrectRAR++
					} else {
						p.stats.WrongRAR++
					}
				} else {
					p.stats.UsedRAW++
					if correct {
						p.stats.CorrectRAW++
					} else {
						p.stats.WrongRAW++
					}
				}
			} else {
				p.stats.ShadowChecks++
			}
			p.dpnt.VerifyConsumer(pc, correct)
		} else {
			p.stats.NoValue++
		}
	}

	// Train (at commit): a detected dependence trains the DPNT after the
	// consumer verification above.
	if d.Kind != DepNone {
		if d.Kind == DepRAW {
			p.stats.LoadsWithRAW++
		} else {
			p.stats.LoadsWithRAR++
		}
		p.dpnt.RecordDependence(Dependence{Kind: d.Kind, SourcePC: d.SourcePC, SinkPC: pc})
	}

	// Produce: a load marked as a RAR producer deposits the value it just
	// read so its predicted sinks can name it. This happens after the
	// consumer read above: a load can be the sink of one instance and the
	// source for the next.
	if havePred && pred.Producer {
		p.sf.Write(pred.Synonym, value, DepRAR, pc)
	}
	if p.sc && p.scSamp.Tick() {
		p.checkInvariants()
	}
	return out
}
