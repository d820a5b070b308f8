package llm

import "strings"

// The prompt templates. A filter prompt is filterHead, the predicate,
// filterMid, the record text and filterTail; an extract prompt is
// extractHead, the description, extractFields, a "- name (type): desc"
// line per field, extractText, the record text and extractTail.
const (
	filterHead    = "You are evaluating a filter over a data record.\nCondition: "
	filterMid     = "\nRecord:\n"
	filterTail    = "\nAnswer exactly true or false."
	extractHead   = "Extract structured data. "
	extractFields = "\nFields:\n"
	extractText   = "Text:\n"
	extractTail   = "\nRespond with JSON."
)

// InputTokens is the token count req's prompt is charged,
// CountTokens(req.Render()), computed from lengths alone: no prompt or
// record text is built. A request without a record prices its
// instruction alone, the optimizer's per-call overhead estimate.
func (req Request) InputTokens() int {
	n := 0
	switch req.Task {
	case TaskFilter:
		n = len(filterHead) + len(req.Predicate) + len(filterMid) + len(filterTail)
	case TaskExtract:
		n = len(extractHead) + len(req.Desc) + len(extractFields) + len(extractText) + len(extractTail)
		for _, f := range req.Fields {
			n += len("- ") + len(f.Name) + len(" (") + len(f.Type.String()) + len("): ") + len(f.Desc) + len("\n")
		}
	}
	if req.Record != nil {
		n += req.Record.TextLen()
	}
	return Tokens(n)
}

// Render builds the prompt a filter or extract request stands for, as a
// hosted model would read it. The simulated service never calls it: it
// prices the request with InputTokens and decides from the structured
// fields.
func (req Request) Render() string {
	text := ""
	if req.Record != nil {
		text = req.Record.Text()
	}
	if req.Task == TaskFilter {
		return filterHead + req.Predicate + filterMid + text + filterTail
	}
	var b strings.Builder
	b.WriteString(extractHead + req.Desc + extractFields)
	for _, f := range req.Fields {
		b.WriteString("- " + f.Name + " (" + f.Type.String() + "): " + f.Desc + "\n")
	}
	b.WriteString(extractText + text + extractTail)
	return b.String()
}
