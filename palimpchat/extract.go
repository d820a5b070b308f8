package palimpchat

import (
	"regexp"
	"strconv"
	"strings"

	"repro/internal/schema"
)

// Slot extraction: deterministic parsers that pull tool arguments out of an
// utterance segment. These stand in for the reasoning LLM's argument
// filling (see DESIGN.md substitutions); each returns ok=false when the
// segment doesn't look like a request for its tool, which the Archytas
// router uses as the primary routing signal.

var (
	quotedRE    = regexp.MustCompile(`"([^"]+)"|'([^']+)'`)
	pathRE      = regexp.MustCompile(`(?:\.{0,2}/)[\w./\-]+|[\w.\-]+/[\w./\-]+`)
	asNameRE    = regexp.MustCompile(`\b(?:as|called|named)\s+([A-Za-z_][\w\-]*)`)
	dollarRE    = regexp.MustCompile(`\$\s*([0-9]+(?:\.[0-9]+)?)`)
	secondsRE   = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?)\s*(?:seconds|second|secs|sec|s)\b`)
	minutesRE   = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?)\s*(?:minutes|minute|mins|min)\b`)
	numberRE    = regexp.MustCompile(`\b([0-9]+)\b`)
	fieldsRE    = regexp.MustCompile(`(?:with|having)?\s*(?:the\s+)?fields?\s+(.+)$`)
	schemaKwRE  = regexp.MustCompile(`\bschema\b`)
	useSchemaRE = regexp.MustCompile(`(?:using|with|into|to)\s+(?:the\s+)?([A-Za-z_][\w]*)\s+schema`)
)

func lc(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func hasAny(s string, words ...string) bool {
	for _, w := range words {
		if strings.Contains(s, w) {
			return true
		}
	}
	return false
}

// firstQuoted returns the first quoted span in s.
func firstQuoted(s string) (string, bool) {
	m := quotedRE.FindStringSubmatch(s)
	if m == nil {
		return "", false
	}
	if m[1] != "" {
		return m[1], true
	}
	return m[2], true
}

// extractLoad parses dataset-loading requests: a path (quoted or slashy)
// plus an optional name ("as demo").
func extractLoad(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if !hasAny(l, "load", "register", "upload", "use the folder", "open the folder", "input dataset", "use folder") {
		return nil, false
	}
	path, ok := firstQuoted(utterance)
	if !ok {
		path = pathRE.FindString(utterance)
	}
	if path == "" {
		return nil, false
	}
	args := map[string]any{"path": strings.TrimSpace(path)}
	if m := asNameRE.FindStringSubmatch(l); m != nil {
		args["name"] = m[1]
	}
	return args, true
}

// splitFieldList splits "dataset name, description and url" into cleaned
// field names.
func splitFieldList(list string) []string {
	list = strings.ReplaceAll(list, " and ", ", ")
	list = strings.ReplaceAll(list, " & ", ", ")
	var out []string
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		for _, lead := range []string{"the ", "a ", "an ", "its ", "their "} {
			part = strings.TrimPrefix(part, lead)
		}
		part = strings.Trim(part, ".?! ")
		if part == "" {
			continue
		}
		if clean, err := schema.SanitizeFieldName(part); err == nil {
			out = append(out, clean)
		}
	}
	return out
}

// extractCreateSchema parses schema-creation requests: "create a schema
// called ClinicalData with fields name, description, url".
func extractCreateSchema(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if !schemaKwRE.MatchString(l) || !hasAny(l, "create", "make", "define", "generate", "new") {
		return nil, false
	}
	args := map[string]any{}
	if m := asNameRE.FindStringSubmatch(utterance); m != nil {
		args["schema_name"] = m[1]
	} else {
		args["schema_name"] = "Extracted"
	}
	if m := fieldsRE.FindStringSubmatch(l); m != nil {
		fields := splitFieldList(m[1])
		if len(fields) > 0 {
			args["field_names"] = fields
		}
	}
	if _, ok := args["field_names"]; !ok {
		return nil, false
	}
	return args, true
}

// filterLeads are verb phrases stripped from the front of a filter segment
// to leave the predicate.
var filterLeads = []string{
	"filter for", "filter out everything except", "filter to", "filter on", "filter",
	"keep only", "keep", "select only", "select", "only keep", "show me only",
	"i am interested in", "i'm interested in", "im interested in",
	"restrict to", "narrow down to", "find",
}

// extractFilter parses filtering requests; the predicate is the segment
// with the leading verb phrase removed.
func extractFilter(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if !hasAny(l, "filter", "keep", "only", "select", "interested in", "restrict", "narrow") {
		return nil, false
	}
	// "extract"-style requests are converts even if they say "only".
	if hasAny(l, "extract", "convert", "pull out") {
		return nil, false
	}
	if q, ok := firstQuoted(utterance); ok {
		return map[string]any{"predicate": q}, true
	}
	pred := strings.TrimSpace(utterance)
	predL := lc(pred)
	for _, lead := range filterLeads {
		if strings.HasPrefix(predL, lead+" ") {
			pred = strings.TrimSpace(pred[len(lead)+1:])
			break
		}
	}
	// Strip generic determiners; keep subject nouns ("papers about X" is a
	// fine predicate).
	for _, det := range []string{"the ", "all ", "those "} {
		pred = strings.TrimPrefix(pred, det)
	}
	pred = strings.Trim(pred, " .?!")
	if pred == "" {
		return nil, false
	}
	return map[string]any{"predicate": pred}, true
}

// extractConvert parses extraction/conversion requests: either naming an
// existing schema ("using the ClinicalData schema") or listing fields
// inline ("extract the dataset name, description and url").
func extractConvert(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if !hasAny(l, "extract", "convert", "pull out", "pull the") {
		return nil, false
	}
	args := map[string]any{}
	if m := useSchemaRE.FindStringSubmatch(utterance); m != nil {
		args["schema_name"] = m[1]
	}
	// Inline field list: text after the extract verb.
	for _, verb := range []string{"extract", "pull out", "pull", "convert to"} {
		if i := strings.Index(l, verb+" "); i >= 0 {
			tail := strings.TrimSpace(utterance[i+len(verb):])
			tailL := lc(tail)
			for _, lead := range []string{"the ", "any ", "all ", "each ", "every "} {
				if strings.HasPrefix(tailL, lead) {
					tail = tail[len(lead):]
					tailL = tailL[len(lead):]
				}
			}
			if fields := splitFieldList(tail); len(fields) > 0 && looksLikeFieldList(tail) {
				args["field_names"] = fields
			}
			break
		}
	}
	if hasAny(l, "each", "every", "all ", " many", "whatever", "any ", "datasets", "clauses", "mentions", "entities") {
		args["one_to_many"] = "true"
	}
	// Entity extraction pattern: a name plus a URL/link field means the
	// record references multiple entities (the paper's ClinicalData case).
	if fields, ok := args["field_names"].([]string); ok {
		var hasName, hasURL bool
		for _, f := range fields {
			if strings.Contains(f, "name") || strings.Contains(f, "title") {
				hasName = true
			}
			if strings.Contains(f, "url") || strings.Contains(f, "link") {
				hasURL = true
			}
		}
		if hasName && hasURL {
			args["one_to_many"] = "true"
		}
	}
	if _, a := args["schema_name"]; !a {
		if _, b := args["field_names"]; !b {
			return nil, false
		}
	}
	return args, true
}

// looksLikeFieldList guards against treating a long sentence as a field
// list: every comma-separated chunk must be short (<= 4 words).
func looksLikeFieldList(s string) bool {
	s = strings.ReplaceAll(s, " and ", ", ")
	for _, part := range strings.Split(s, ",") {
		if len(strings.Fields(part)) > 4 {
			return false
		}
	}
	return true
}

// extractPolicy parses optimization-goal requests, with constrained forms
// ("maximize quality under $0.50", "best quality under 120 seconds").
func extractPolicy(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if !hasAny(l, "quality", "cost", "cheap", "fast", "runtime", "optimiz", "policy", "budget") {
		return nil, false
	}
	if !hasAny(l, "optimiz", "policy", "maximize", "minimize", "max", "min", "best", "cheapest", "fastest", "under", "budget", "prefer") {
		return nil, false
	}
	// Constrained forms first.
	if m := dollarRE.FindStringSubmatch(l); m != nil && hasAny(l, "under", "below", "at most", "budget", "less than") {
		v, _ := strconv.ParseFloat(m[1], 64)
		return map[string]any{"policy": "quality-at-cost", "param": v}, true
	}
	if hasAny(l, "under", "below", "at most", "less than", "within") {
		if m := minutesRE.FindStringSubmatch(l); m != nil {
			v, _ := strconv.ParseFloat(m[1], 64)
			return map[string]any{"policy": "quality-at-time", "param": v * 60}, true
		}
		if m := secondsRE.FindStringSubmatch(l); m != nil {
			v, _ := strconv.ParseFloat(m[1], 64)
			return map[string]any{"policy": "quality-at-time", "param": v}, true
		}
	}
	// Verb-object pairing: the objective named next to the optimizing verb
	// wins ("minimize the cost no matter the quality" is min-cost even
	// though "quality" appears later).
	minimizing := hasAny(l, "minimize", "minimise", "minimum", "cheapest", "lowest", "least")
	maximizing := hasAny(l, "maximize", "maximise", "maximum", "best", "highest")
	switch {
	case hasAny(l, "fastest") || (minimizing && hasAny(l, "time", "runtime", "latency", "fast")):
		return map[string]any{"policy": "min-time"}, true
	case minimizing && hasAny(l, "cost", "cheap", "budget", "spend"):
		return map[string]any{"policy": "min-cost"}, true
	case maximizing && hasAny(l, "quality"):
		return map[string]any{"policy": "max-quality"}, true
	case hasAny(l, "quality"):
		return map[string]any{"policy": "max-quality"}, true
	case hasAny(l, "cost", "cheap", "budget"):
		return map[string]any{"policy": "min-cost"}, true
	case hasAny(l, "fast", "runtime", "time"):
		return map[string]any{"policy": "min-time"}, true
	}
	return nil, false
}

var executeRE = regexp.MustCompile(`\b(run|execute|go ahead|process)\b`)

// extractExecute parses run requests.
func extractExecute(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if executeRE.MatchString(l) {
		// "how long did it run" is a stats question; "fastest runtime" is
		// a policy choice.
		if hasAny(l, "how long", "how much", "statistic", "optimiz", "policy", "runtime") {
			return nil, false
		}
		return map[string]any{}, true
	}
	return nil, false
}

// extractStats parses statistics requests (the paper's Figure 5 panel).
func extractStats(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if hasAny(l, "statistic", "stats", "how much did", "how long did", "what did it cost",
		"runtime was", "show the cost", "execution summary", "how expensive") {
		return map[string]any{}, true
	}
	return nil, false
}

// extractShowRecords parses output-display requests, with an optional
// count.
func extractShowRecords(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if !hasAny(l, "show", "display", "see the", "list the", "print") {
		return nil, false
	}
	if !hasAny(l, "record", "result", "output", "row", "extracted", "dataset names", "url") {
		return nil, false
	}
	args := map[string]any{}
	if m := numberRE.FindStringSubmatch(l); m != nil {
		n, _ := strconv.Atoi(m[1])
		args["n"] = float64(n)
	}
	return args, true
}

// extractExport parses notebook/code export requests.
func extractExport(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if hasAny(l, "export", "download", "save") && hasAny(l, "notebook", "jupyter", "ipynb") {
		args := map[string]any{}
		if p, ok := firstQuoted(utterance); ok {
			args["path"] = p
		} else if p := pathRE.FindString(utterance); p != "" {
			args["path"] = p
		}
		return args, true
	}
	return nil, false
}

// extractGenerateCode parses code-display requests (Figure 6).
func extractGenerateCode(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if hasAny(l, "generate the code", "show the code", "show me the code", "final code",
		"the pipeline code", "generated code", "code for the pipeline") {
		return map[string]any{}, true
	}
	return nil, false
}

// extractDescribe parses plan-description requests.
func extractDescribe(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if hasAny(l, "describe the pipeline", "what is the pipeline", "current pipeline",
		"logical plan", "what will run", "explain the plan") {
		return map[string]any{}, true
	}
	return nil, false
}

// extractReset parses pipeline-reset requests.
func extractReset(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if hasAny(l, "reset", "start over", "start again", "clear the pipeline", "undo everything") {
		return map[string]any{}, true
	}
	return nil, false
}

// extractListDatasets parses dataset-listing requests.
func extractListDatasets(utterance string) (map[string]any, bool) {
	l := lc(utterance)
	if hasAny(l, "list the datasets", "what datasets", "which datasets", "registered datasets", "available datasets") {
		return map[string]any{}, true
	}
	return nil, false
}
