package service

import (
	"html/template"
	"net/http"
)

// dashboardTmpl is the minimal human view: one row per batch with live
// links. It exists so a researcher can glance at a long-running daemon
// without tooling; everything it shows is also on the JSON API.
var dashboardTmpl = template.Must(template.New("dash").Parse(`<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>starved — experiment service</title>
<style>
body { font-family: ui-monospace, monospace; margin: 2rem; color: #222; }
h1 { font-size: 1.2rem; }
table { border-collapse: collapse; }
th, td { padding: .3rem .8rem; border-bottom: 1px solid #ddd; text-align: left; }
.state-done { color: #1a7f37; }
.state-failed, .state-cancelled { color: #b42318; }
.state-running { color: #9a6700; }
small { color: #777; }
</style>
</head>
<body>
<h1>starved — experiment service</h1>
<p><small>queue depth {{.Depth}} · <a href="/metrics">metrics</a> · <a href="/debug/queue">queue</a> · <a href="/healthz">healthz</a></small></p>
<table>
<tr><th>batch</th><th>client</th><th>name</th><th>state</th><th>progress</th><th></th></tr>
{{range .Batches}}
<tr>
<td><a href="/batches/{{.ID}}">{{.ID}}</a></td>
<td>{{.Client}}</td>
<td>{{.Name}}</td>
<td class="state-{{.State}}">{{.State}}</td>
<td>{{.Done}}/{{.Jobs}}{{if .Failed}} ({{.Failed}} failed){{end}}{{if .Cached}} ({{.Cached}} cached){{end}}</td>
<td><a href="/batches/{{.ID}}/events">events</a> · <a href="/batches/{{.ID}}/artifacts">artifacts</a></td>
</tr>
{{else}}
<tr><td colspan="6"><small>no batches yet — POST /batches</small></td></tr>
{{end}}
</table>
</body>
</html>
`))

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = dashboardTmpl.Execute(w, struct {
		Depth   int
		Batches []BatchStatus
	}{Depth: s.sched.queued(), Batches: s.statuses()})
}
