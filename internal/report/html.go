package report

import (
	"fmt"
	"html/template"
	"io"
	"iter"

	"dufp"
	"dufp/internal/experiment"
)

// Document assembles the full campaign report.
type Document struct {
	// Title heads the report.
	Title string
	// Sections are rendered in order.
	Sections []Section
}

// Section is one titled block: prose, an optional chart and an optional
// table.
type Section struct {
	Title string
	Prose string
	SVG   template.HTML
	Table *experiment.Table
}

var page = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
body { font-family: sans-serif; max-width: 1020px; margin: 2em auto; color: #222; }
h1 { border-bottom: 2px solid #4878a8; padding-bottom: .3em; }
h2 { margin-top: 2em; color: #2a4a68; }
table { border-collapse: collapse; font-size: 13px; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: 4px 8px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f0f4f8; }
p.note { color: #666; font-style: italic; font-size: 13px; }
</style></head><body>
<h1>{{.Title}}</h1>
{{range .Sections}}
<h2>{{.Title}}</h2>
{{if .Prose}}<p>{{.Prose}}</p>{{end}}
{{.SVG}}
{{if .Table}}<table><tr>{{range .Table.Headers}}<th>{{.}}</th>{{end}}</tr>
{{range .Table.Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}</table>
{{range .Table.Notes}}<p class="note">{{.}}</p>{{end}}{{end}}
{{end}}
</body></html>
`))

// Write renders the document as a standalone HTML page.
func (d Document) Write(w io.Writer) error { return page.Execute(w, d) }

// gridChart builds the grouped-bar chart of one grid figure.
func gridChart(g *experiment.Grid, title, yLabel string, pick func(dufp.Comparison) (mean, lo, hi float64)) (string, error) {
	groups := g.AppNames()
	var series []BarSeries
	for _, tol := range g.Opts.Tolerances {
		for _, gov := range []experiment.GovName{experiment.GovDUF, experiment.GovDUFP} {
			s := BarSeries{Label: fmt.Sprintf("%s@%.0f%%", gov, tol*100)}
			for _, app := range groups {
				c, err := g.Compare(experiment.CellKey{App: app, Tolerance: tol, Gov: gov})
				if err != nil {
					return "", err
				}
				mean, lo, hi := pick(c)
				s.Values = append(s.Values, mean)
				s.Lo = append(s.Lo, lo)
				s.Hi = append(s.Hi, hi)
			}
			series = append(series, s)
		}
	}
	return GroupedBars(title, yLabel, groups, series)
}

// Campaign renders the complete paper reproduction as an HTML report:
// every figure as a chart plus its data table and the claims verdicts.
func Campaign(opts experiment.Options) (Document, error) {
	doc := Document{Title: "DUFP reproduction — measurement campaign"}

	tabI := experiment.TableI(opts)
	doc.Sections = append(doc.Sections, Section{
		Title: "Table I — target architecture",
		Table: &tabI,
	})

	fig1a, err := experiment.Fig1a(opts)
	if err != nil {
		return Document{}, err
	}
	doc.Sections = append(doc.Sections, Section{
		Title: "Fig 1 — motivation: static power capping on CG",
		Prose: "Whole-run caps save power but cost time; capping only the memory prologue is free.",
		Table: &fig1a,
	})
	fig1b, fig1c, err := experiment.Fig1bc(opts)
	if err != nil {
		return Document{}, err
	}
	doc.Sections = append(doc.Sections,
		Section{Title: "Fig 1b — phase power under partial caps", Table: &fig1b},
		Section{Title: "Fig 1c — total time under partial caps", Table: &fig1c})

	g, err := experiment.RunGrid(opts)
	if err != nil {
		return Document{}, err
	}

	type figDef struct {
		title, yLabel string
		build         func(*experiment.Grid) (experiment.Table, error)
		pick          func(dufp.Comparison) (float64, float64, float64)
	}
	figs := []figDef{
		{"Fig 3a — execution-time overhead", "slowdown %", experiment.Fig3a,
			func(c dufp.Comparison) (float64, float64, float64) {
				return (c.TimeRatio.Mean - 1) * 100, (c.TimeRatio.Min - 1) * 100, (c.TimeRatio.Max - 1) * 100
			}},
		{"Fig 3b — processor power savings", "savings %", experiment.Fig3b,
			func(c dufp.Comparison) (float64, float64, float64) {
				return (1 - c.PkgPowerRatio.Mean) * 100, (1 - c.PkgPowerRatio.Max) * 100, (1 - c.PkgPowerRatio.Min) * 100
			}},
		{"Fig 3c — CPU+DRAM energy savings", "savings %", experiment.Fig3c,
			func(c dufp.Comparison) (float64, float64, float64) {
				return (1 - c.TotalEnergyRatio.Mean) * 100, (1 - c.TotalEnergyRatio.Max) * 100, (1 - c.TotalEnergyRatio.Min) * 100
			}},
		{"Fig 4 — DRAM power savings", "savings %", experiment.Fig4,
			func(c dufp.Comparison) (float64, float64, float64) {
				return (1 - c.DramPowerRatio.Mean) * 100, (1 - c.DramPowerRatio.Max) * 100, (1 - c.DramPowerRatio.Min) * 100
			}},
	}
	for _, f := range figs {
		svg, err := gridChart(g, f.title, f.yLabel, f.pick)
		if err != nil {
			return Document{}, err
		}
		tab, err := f.build(g)
		if err != nil {
			return Document{}, err
		}
		doc.Sections = append(doc.Sections, Section{
			Title: f.title,
			SVG:   template.HTML(svg),
			Table: &tab,
		})
	}

	claims, err := experiment.Claims(g)
	if err != nil {
		return Document{}, err
	}
	doc.Sections = append(doc.Sections, Section{
		Title: "Paper conclusions — verdicts",
		Table: &claims,
	})

	fig5, err := experiment.Fig5(opts)
	if err != nil {
		return Document{}, err
	}
	svg, err := Lines("Fig 5 — core frequency, CG @ 10 % tolerated slowdown", "time (s)", "GHz",
		[]LineSeries{
			traceSeries("DUF", fig5.DUF.Trace.Points(0), fig5.DUF.Trace.Len(0)),
			traceSeries("DUFP", fig5.DUFP.Trace.Points(0), fig5.DUFP.Trace.Len(0)),
		})
	if err != nil {
		return Document{}, err
	}
	doc.Sections = append(doc.Sections, Section{
		Title: "Fig 5 — frequency traces",
		Prose: fig5.Table.Notes[0],
		SVG:   template.HTML(svg),
	})

	return doc, nil
}

// traceSeries downsamples a streamed trace of n points into a plottable
// series without materialising the full slice: every (n/400+1)-th sample
// is kept, matching trace.Downsample's stride on the same input.
func traceSeries(label string, pts iter.Seq[dufp.TracePoint], n int) LineSeries {
	step := n/400 + 1
	s := LineSeries{Label: label}
	i := 0
	for p := range pts {
		if i%step == 0 {
			s.X = append(s.X, p.Time.Seconds())
			s.Y = append(s.Y, p.CoreFreq.GHz())
		}
		i++
	}
	return s
}
