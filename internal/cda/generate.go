package cda

import (
	"fmt"
	"math/rand"

	"repro/internal/ontology"
	"repro/internal/xmltree"
)

// GenConfig configures the synthetic EMR corpus generator.
type GenConfig struct {
	// Seed makes the corpus deterministic.
	Seed int64
	// NumDocuments is the number of patient records to generate (the
	// paper's corpus had 2,162; tests use far fewer).
	NumDocuments int
	// ProblemsPerPatient is the expected number of disorders per record.
	ProblemsPerPatient int
	// MedicationsPerPatient is the expected number of medication entries.
	MedicationsPerPatient int
	// ProceduresPerPatient is the expected number of procedure entries.
	ProceduresPerPatient int
}

// DefaultGenConfig produces records of roughly the paper's per-document
// density when combined with the default synthetic ontology.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:                  1,
		NumDocuments:          200,
		ProblemsPerPatient:    4,
		MedicationsPerPatient: 4,
		ProceduresPerPatient:  2,
	}
}

var (
	givenNames = []string{
		"Ana", "Ben", "Carla", "Diego", "Elena", "Felix", "Grace", "Hugo",
		"Iris", "Jonas", "Kira", "Luis", "Mara", "Nico", "Olga", "Pavel",
		"Rosa", "Samir", "Tessa", "Viktor",
	}
	familyNames = []string{
		"Alvarez", "Brooks", "Chen", "Dimitrov", "Eriksen", "Fernandez",
		"Gupta", "Hansen", "Ivanova", "Jensen", "Kowalski", "Lindgren",
		"Moreau", "Nakamura", "Olsen", "Petrov", "Quintero", "Rossi",
		"Schmidt", "Tanaka",
	}
	doseTemplates = []string{
		"%d mg every other day. Stop if temperature is above 103F.",
		"%d mg twice daily with meals.",
		"%d mg once daily at bedtime.",
		"%d mg every 6 hours as needed.",
		"%d mg weekly, taper after four weeks.",
	}
	narrativeTemplates = []string{
		"Patient presented with %s. Started on %s with good response.",
		"History of %s. Continues %s per cardiology.",
		"Admitted for evaluation of %s; %s initiated in the unit.",
		"Follow-up for %s, stable on %s.",
	}
)

// Generator produces synthetic CDA documents whose code nodes reference
// concepts of the supplied ontology. Each patient gets a condition
// profile (a set of disorders) and medications drawn preferentially
// from the treated-by targets of those disorders, so that drug/disorder
// co-occurrence mirrors clinical data.
type Generator struct {
	cfg GenConfig
	ont *ontology.Ontology
	r   *rand.Rand

	disorders  []*ontology.Concept
	drugs      []*ontology.Concept
	procedures []*ontology.Concept
	vitals     []*ontology.Concept
	medsKind   *ontology.Concept
}

// NewGenerator prepares a generator over the given ontology. The
// ontology must contain the curated axis concepts (it is normally the
// output of ontology.Generate).
func NewGenerator(cfg GenConfig, ont *ontology.Ontology) (*Generator, error) {
	g := &Generator{cfg: cfg, ont: ont, r: rand.New(rand.NewSource(cfg.Seed))}
	axis := func(code string) (*ontology.Concept, error) {
		c, ok := ont.ByCode(code)
		if !ok {
			return nil, fmt.Errorf("cda: ontology lacks axis concept %s", code)
		}
		return c, nil
	}
	finding, err := axis(ontology.CodeClinicalFinding)
	if err != nil {
		return nil, err
	}
	pharma, err := axis(ontology.CodePharmaProduct)
	if err != nil {
		return nil, err
	}
	proc, err := axis(ontology.CodeProcedure)
	if err != nil {
		return nil, err
	}
	meds, ok := ont.ByCode(ontology.CodeMedications)
	if !ok {
		return nil, fmt.Errorf("cda: ontology lacks Medications concept")
	}
	g.medsKind = meds
	for _, id := range ont.DescendantsOf(finding.ID) {
		c := ont.Concept(id)
		if c.Code == ontology.CodeMedications {
			continue // the observation-kind concept, not a disorder
		}
		g.disorders = append(g.disorders, c)
	}
	for _, id := range ont.DescendantsOf(pharma.ID) {
		c := ont.Concept(id)
		if c.Code == ontology.CodeMedications {
			continue
		}
		g.drugs = append(g.drugs, c)
	}
	for _, id := range ont.DescendantsOf(proc.ID) {
		g.procedures = append(g.procedures, ont.Concept(id))
	}
	if len(g.disorders) == 0 || len(g.drugs) == 0 {
		return nil, fmt.Errorf("cda: ontology has no disorders or no drugs")
	}
	// Vital-sign kinds: reuse a few stable finding concepts if present.
	for _, pref := range []string{"Fever", "Pain"} {
		if c := ont.ByPreferred(pref); c != nil {
			g.vitals = append(g.vitals, c)
		}
	}
	if len(g.vitals) == 0 {
		g.vitals = g.disorders[:1]
	}
	return g, nil
}

// pickDisorder draws from a concentrated case-mix: half the draws come
// from the "common conditions" head of the disorder pool (the curated
// clinical core — a specialty clinic sees the same conditions over and
// over; the paper's corpus came from one cardiac clinic), the rest
// uniformly from the full pool. This gives the corpus realistic keyword
// co-occurrence: common disorder/treatment pairs appear literally in
// many records, as they do in real EMR data.
func (g *Generator) pickDisorder() *ontology.Concept {
	head := len(g.disorders)
	if head > 40 {
		head = 40
	}
	if g.r.Float64() < 0.5 {
		return g.disorders[g.r.Intn(head)]
	}
	return g.disorders[g.r.Intn(len(g.disorders))]
}

func (g *Generator) pickDrug() *ontology.Concept {
	return g.drugs[g.r.Intn(len(g.drugs))]
}

// drugFor prefers a drug related to the disorder by a treated-by edge;
// falls back to a random drug.
func (g *Generator) drugFor(dis *ontology.Concept) *ontology.Concept {
	var treats []*ontology.Concept
	for _, e := range g.ont.Out(dis.ID) {
		if e.Type == ontology.TreatedBy {
			treats = append(treats, g.ont.Concept(e.To))
		}
	}
	if len(treats) > 0 && g.r.Float64() < 0.8 {
		return treats[g.r.Intn(len(treats))]
	}
	return g.pickDrug()
}

func atLeastOne(r *rand.Rand, mean int) int {
	if mean <= 1 {
		return 1
	}
	return 1 + r.Intn(2*mean-1)
}

// GenerateDocument builds one synthetic patient record.
func (g *Generator) GenerateDocument(n int) *xmltree.Document {
	r := g.r
	b := NewBuilder(
		fmt.Sprintf("c%04d", n),
		givenNames[r.Intn(len(givenNames))],
		familyNames[r.Intn(len(familyNames))],
	)
	gender := "M"
	if r.Intn(2) == 0 {
		gender = "F"
	}
	b.SetPatient(
		givenNames[r.Intn(len(givenNames))],
		familyNames[r.Intn(len(familyNames))],
		gender,
		fmt.Sprintf("%04d%02d%02d", 1990+r.Intn(20), 1+r.Intn(12), 1+r.Intn(28)),
	)

	// Condition profile drives the whole record.
	nProblems := atLeastOne(r, g.cfg.ProblemsPerPatient)
	profile := make([]*ontology.Concept, 0, nProblems)
	for i := 0; i < nProblems; i++ {
		profile = append(profile, g.pickDisorder())
	}

	problems := b.Section(LOINCProblems, "Problems")
	for _, dis := range profile {
		AddObservation(problems, g.ont, g.medsKind, dis)
	}

	meds := b.Section(LOINCMedications, "Medications")
	nMeds := atLeastOne(r, g.cfg.MedicationsPerPatient)
	var prescribed []*ontology.Concept
	for i := 0; i < nMeds; i++ {
		dis := profile[r.Intn(len(profile))]
		drug := g.drugFor(dis)
		prescribed = append(prescribed, drug)
		dose := fmt.Sprintf(doseTemplates[r.Intn(len(doseTemplates))], 5*(1+r.Intn(30)))
		// Anchor the drug-name content (content ID="mN") so other
		// elements can reference it, as in Figure 1.
		AddMedicationWithID(meds, g.ont, drug, dose, fmt.Sprintf("m%d", i))
	}

	course := b.Section(LOINCHospCourse, "Hospital Course")
	dis := profile[r.Intn(len(profile))]
	drugIdx := r.Intn(len(prescribed))
	narrative := AddNarrative(course, fmt.Sprintf(
		narrativeTemplates[r.Intn(len(narrativeTemplates))],
		dis.Preferred, prescribed[drugIdx].Preferred))
	// The narrative cites the medication entry through an ID-IDREF
	// reference (the CDA originalText idiom), giving the corpus the
	// hyperlink edges `xontorank verify` counts.
	ref := narrative.NewChild("reference")
	ref.SetAttr("value", fmt.Sprintf("m%d", drugIdx))

	if len(g.procedures) > 0 {
		procs := b.Section(LOINCProcedures, "Procedures")
		nProcs := atLeastOne(r, g.cfg.ProceduresPerPatient)
		for i := 0; i < nProcs; i++ {
			p := g.procedures[r.Intn(len(g.procedures))]
			AddProcedure(procs, g.ont, p, "")
		}
	}

	exam := b.Section(LOINCPhysicalExam, "Physical Examination")
	vs := Subsection(exam, LOINCVitalSigns, "Vital Signs")
	AddVitalSign(vs, g.ont, g.vitals[r.Intn(len(g.vitals))],
		fmt.Sprintf("%.1f", 36.0+r.Float64()*3), "C")

	return b.Document(fmt.Sprintf("patient-%04d", n))
}

// GenerateCorpus builds the configured number of records into a corpus.
func (g *Generator) GenerateCorpus() *xmltree.Corpus {
	corpus := xmltree.NewCorpus()
	for i := 0; i < g.cfg.NumDocuments; i++ {
		corpus.Add(g.GenerateDocument(i))
	}
	return corpus
}

// GenerateFigure1 reproduces the paper's Figure 1 document (condensed):
// the asthma/theophylline record the introduction's example query is
// answered from. It requires the curated respiratory concepts.
func GenerateFigure1(ont *ontology.Ontology) (*xmltree.Document, error) {
	need := func(code string) (*ontology.Concept, error) {
		c, ok := ont.ByCode(code)
		if !ok {
			return nil, fmt.Errorf("cda: ontology lacks concept %s", code)
		}
		return c, nil
	}
	meds, err := need(ontology.CodeMedications)
	if err != nil {
		return nil, err
	}
	asthma, err := need(ontology.CodeAsthma)
	if err != nil {
		return nil, err
	}
	bronchitis, err := need(ontology.CodeBronchitis)
	if err != nil {
		return nil, err
	}
	albuterol, err := need(ontology.CodeAlbuterol)
	if err != nil {
		return nil, err
	}
	theo, err := need(ontology.CodeTheophylline)
	if err != nil {
		return nil, err
	}

	b := NewBuilder("c266", "Juan", "Woodblack")
	b.SetPatient("FirstName", "LastName", "M", "19700312")
	sec := b.Section(LOINCMedications, "Medications")
	asthmaObs := AddObservation(sec, ont, meds, asthma)
	// Figure 1 line 40: the asthma value's originalText references the
	// theophylline content anchor (ID m1).
	AddOriginalTextReference(asthmaObs.Children[1], "m1")
	obs := AddObservation(sec, ont, meds, bronchitis)
	// Figure 1 nests an albuterol value inside the bronchitis value.
	val := obs.Children[1]
	inner := val.NewChild("value")
	inner.SetAttr("code", albuterol.Code)
	inner.SetAttr("codeSystem", ont.SystemID)
	inner.SetAttr("displayName", albuterol.Preferred)
	AddMedicationWithID(sec, ont, theo,
		"20 mg every other day, alternating with 18 mg every other day. Stop if temperature is above 103F.",
		"m1")

	exam := b.Section(LOINCPhysicalExam, "Physical Examination")
	vs := Subsection(exam, LOINCVitalSigns, "Vital Signs")
	AddNarrative(vs, "Temperature 36.9 C (98.5 F) Pulse 86 / minute")

	return b.Document("figure-1"), nil
}
