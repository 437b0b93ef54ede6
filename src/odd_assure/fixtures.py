"""Built-in automated-valet-parking (AVP) example models.

These fixtures exercise every file format end to end: an ODD spec for the
perception-relevant operating conditions, the hazard analysis for the
"failure to adequately detect object" hazard, a runtime confidence network
over the compiled hazard events, and the safety ontology graph tying ODD,
hazard, argument, and network metadata together.

CPT values in the confidence network are illustrative defaults chosen to be
monotone (worse conditions never raise confidence); treat them as
placeholders for project-calibrated tables.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import numpy as np

from . import bayes_core, hara_fta, safety_ontology
from .bayes_core import BnNode, Cpt, build_net
from .confidence_templates import DATA_OBJECTIVE, _LAYERS, AcpBinding
from .odd_model import OddSpec, parse_interval, parse_odd_spec
from .runtime_monitor import ModelBundle, make_bundle
from .safety_ontology import RDF_TYPE, Literal, Triple, TripleGraph, assert_all

HAZARD_ID = "Failure_to_detect_object"

# Speed is deliberately left a non-partition class: Speed_Medium [31, 60]
# and Speed_High [60, +[ share the point 60, which the overlap validator is
# expected to report.
AVP_ODD_DOCUMENT: dict = {
    "classes": [
        {"name": "ODD", "parent": None, "attributes": []},
        {"name": "Environment_conditions", "parent": "ODD", "attributes": []},
        {"name": "Weather_conditions", "parent": "Environment_conditions", "attributes": []},
        {
            "name": "Rain",
            "parent": "Weather_conditions",
            "partition": True,
            "attributes": [
                {"name": "Rain_light", "unit": "cm/h", "interval": "[0, 0.25["},
                {"name": "Rain_Moderate", "unit": "cm/h", "interval": "[0.25, 0.77["},
                {"name": "Rain_Heavy", "unit": "cm/h", "interval": "[0.77, +["},
            ],
        },
        {
            "name": "Fog",
            "parent": "Weather_conditions",
            "partition": True,
            "attributes": [
                {"name": "Fog_Severity_1", "unit": "m", "interval": "[1610, +["},
                {"name": "Fog_Severity_2", "unit": "m", "interval": "[805, 1610["},
                {"name": "Fog_Severity_3", "unit": "m", "interval": "[244, 805["},
                {"name": "Fog_Severity_4", "unit": "m", "interval": "[60, 244["},
                {"name": "Fog_Severity_5", "unit": "m", "interval": "[0, 60["},
            ],
        },
        {
            "name": "Snow",
            "parent": "Weather_conditions",
            "partition": True,
            "attributes": [
                {"name": "Snow_Light", "unit": "km", "interval": "[1, +["},
                {"name": "Snow_Moderate", "unit": "km", "interval": "[0.5, 1["},
                {"name": "Snow_Heavy", "unit": "km", "interval": "[0, 0.5["},
            ],
        },
        {"name": "Illumination", "parent": "Environment_conditions", "attributes": []},
        {
            "name": "Vehicle_lighting",
            "parent": "Illumination",
            "partition": True,
            "attributes": [
                {"name": "Vehicle_lighting_High", "unit": "Lux", "interval": "[50, 150]"},
                {"name": "Vehicle_lighting_Low", "unit": "Lux", "interval": "[0, 50["},
            ],
        },
        {
            "name": "Env_lighting",
            "parent": "Illumination",
            "partition": True,
            "attributes": [
                {"name": "Sunlight", "unit": "Lux", "interval": "[107.527, +["},
                {"name": "Very_Dark_Day", "unit": "Lux", "interval": "[10.8, 107.527["},
                {"name": "Twilight", "unit": "Lux", "interval": "[0.0011, 10.8["},
                {"name": "Starlight", "unit": "Lux", "interval": "[0.0001, 0.0011["},
                {"name": "Overcast_Night", "unit": "Lux", "interval": "[0, 0.0001["},
            ],
        },
        {"name": "Sun_angle", "parent": "Environment_conditions", "attributes": []},
        {
            "name": "sun_azimuth_angle",
            "parent": "Sun_angle",
            "partition": True,
            "attributes": [
                {"name": "Azimuth_in_range", "unit": "deg", "interval": "[0, 360["},
            ],
        },
        {
            "name": "sun_altitude_angle",
            "parent": "Sun_angle",
            "partition": True,
            "attributes": [
                {"name": "Altitude_in_range", "unit": "deg", "interval": "[-90, 90]"},
            ],
        },
        {
            "name": "Road_surface",
            "parent": "Environment_conditions",
            "partition": True,
            "attributes": [
                {"name": "Wet", "unit": "category", "interval": "[0, 1["},
                {"name": "Snow_covered", "unit": "category", "interval": "[1, 2["},
                {"name": "Sand_gravel", "unit": "category", "interval": "[2, 3["},
            ],
        },
        {"name": "Infrastructure", "parent": "ODD", "attributes": []},
        {
            "name": "Road_type",
            "parent": "Infrastructure",
            "partition": True,
            "attributes": [
                {"name": "Open_Parking", "unit": "category", "interval": "[0, 1["},
                {"name": "Closed_Parking", "unit": "category", "interval": "[1, 2["},
            ],
        },
        {"name": "Road_geometry", "parent": "Infrastructure", "attributes": []},
        {
            "name": "Horizontal_Curvature",
            "parent": "Road_geometry",
            "partition": True,
            "attributes": [
                {"name": "Horizontal_curvature_in_range", "unit": "1/m", "interval": "[0, +["},
            ],
        },
        {
            "name": "Vertical_Curvature",
            "parent": "Road_geometry",
            "partition": True,
            "attributes": [
                {"name": "Vertical_curvature_in_range", "unit": "1/m", "interval": "[0, +["},
            ],
        },
        {
            "name": "Traffic_participant",
            "parent": "ODD",
            "partition": True,
            "attributes": [
                {"name": "Driver", "unit": "category", "interval": "[0, 1["},
                {"name": "Pedestrian", "unit": "category", "interval": "[1, 2["},
            ],
        },
        {
            "name": "Ego_speed",
            "parent": "ODD",
            "partition": False,
            "attributes": [
                {"name": "Speed_High", "unit": "km/h", "interval": "[60, +["},
                {"name": "Speed_Medium", "unit": "km/h", "interval": "[31, 60]"},
                {"name": "Speed_Low", "unit": "km/h", "interval": "[0, 31["},
            ],
        },
    ]
}


AVP_HARA_DOCUMENT: dict = {
    "hazards": [HAZARD_ID],
    "events": [
        {
            "id": HAZARD_ID,
            "text": "Failure to adequately detect object",
            "atomic": False,
            "role": "hazardous",
            "oper_conditions": [],
        },
        {
            "id": "Presence_of_object",
            "text": "Presence of object",
            "atomic": True,
            "role": "occurrence",
            "oper_conditions": [
                ["Road_type", "Open_Parking"],
                ["Road_type", "Closed_Parking"],
                ["Traffic_participant", "Driver"],
                ["Traffic_participant", "Pedestrian"],
            ],
        },
        {
            "id": "Detection_of_object",
            "text": "Detection of the object",
            "atomic": True,
            "role": "occurrence",
            "oper_conditions": [
                ["Weather_conditions", "Rain"],
                ["Weather_conditions", "Fog"],
                ["Weather_conditions", "Snow"],
                ["Illumination", "Vehicle_lighting"],
                ["Illumination", "Env_lighting"],
                ["Sun_angle", "sun_azimuth_angle"],
                ["Sun_angle", "sun_altitude_angle"],
                ["Ego_speed", "Speed_High"],
                ["Ego_speed", "Speed_Medium"],
                ["Ego_speed", "Speed_Low"],
                ["Road_geometry", "Horizontal_Curvature"],
                ["Road_geometry", "Vertical_Curvature"],
            ],
        },
        {
            "id": "Brake_execution",
            "text": "Brake execution",
            "atomic": True,
            "role": "consequence",
            "oper_conditions": [
                ["Road_surface", "Wet"],
                ["Road_surface", "Snow_covered"],
                ["Road_surface", "Sand_gravel"],
                ["Ego_speed", "Speed_High"],
                ["Ego_speed", "Speed_Medium"],
                ["Ego_speed", "Speed_Low"],
            ],
        },
        {
            "id": "Forward_collision",
            "text": "Forward collision",
            "atomic": True,
            "role": "consequence",
            "oper_conditions": [
                ["Traffic_participant", "Driver"],
                ["Traffic_participant", "Pedestrian"],
                ["Ego_speed", "Speed_High"],
                ["Ego_speed", "Speed_Medium"],
                ["Ego_speed", "Speed_Low"],
            ],
        },
    ],
    "causal": [
        {
            "parent": HAZARD_ID,
            "op": "OR",
            "children": [
                "Presence_of_object",
                "Detection_of_object",
                "Brake_execution",
                "Forward_collision",
            ],
        }
    ],
    "chains": [
        {
            "hazardous": HAZARD_ID,
            "occurrence": ["Presence_of_object", "Detection_of_object"],
            "consequence": ["Brake_execution", "Forward_collision"],
            "edges": [
                {"kind": "trigger", "from": "Presence_of_object", "to": HAZARD_ID},
                {"kind": "trigger", "from": "Detection_of_object", "to": HAZARD_ID},
                {"kind": "dependsOnOccurrence", "from": "Detection_of_object", "to": "Presence_of_object"},
                {"kind": "dependsOnOccurrence", "from": HAZARD_ID, "to": "Detection_of_object"},
                {"kind": "dependsOnHazardous", "from": "Brake_execution", "to": HAZARD_ID},
                {"kind": "dependsOnHazardous", "from": "Forward_collision", "to": HAZARD_ID},
                {"kind": "dependsOnConsequence", "from": "Forward_collision", "to": "Brake_execution"},
            ],
        }
    ],
}

AVP_LEAF_PRIORS: dict[str, float] = {
    "Presence_of_object": 0.5,
    "Detection_of_object": 0.1,
    "Brake_execution": 0.05,
    "Forward_collision": 0.02,
}


def avp_odd_spec() -> OddSpec:
    return parse_odd_spec(AVP_ODD_DOCUMENT)


def avp_hara():
    return hara_fta.parse_hara(AVP_HARA_DOCUMENT)


def avp_fta() -> hara_fta.Fta:
    hazards, events, relation, _ = avp_hara()
    return hara_fta.compute_fta(events[hazards[0]], events.values(), relation)


AVP_BINDINGS = {"Fog": "Fog", "Rain": "Rain", "Ego_speed": "Ego_speed"}
AVP_STATE_VALUES = {"occurs": 0.0, "not_occurs": 1.0}
AVP_SOLUTION_ID = "Sn8.1"

# Risk weight of each observable state, scaled into failure probabilities by
# the event CPT builders below. Index order matches the node state order.
_FOG_RISK = (0.0, 0.25, 0.5, 0.75, 1.0)
_RAIN_RISK = (0.0, 0.5, 1.0)
_SPEED_RISK = (1.0, 0.5, 0.0)


def _attribute_names(odd_class: str) -> tuple[str, ...]:
    """The attribute names of an ODD class, in AVP_ODD_DOCUMENT order."""
    (cls,) = (c for c in AVP_ODD_DOCUMENT["classes"] if c["name"] == odd_class)
    return tuple(a["name"] for a in cls["attributes"])


def avp_monitor_bn() -> bayes_core.BayesNet:
    """Confidence network for the monitor bundle: the compiled hazard tree
    plus a node per bound ODD class over its attributes, the parent of each
    atomic event whose operating conditions name it. So live readings shift
    the failure probabilities: fog, rain, and speed feed the detection event,
    and speed alone feeds braking and collision."""
    fta = avp_fta()
    tree = bayes_core.compile_fta_to_bn(fta, AVP_LEAF_PRIORS)
    conditions = [BnNode(node, _attribute_names(cls)) for cls, node in AVP_BINDINGS.items()]
    edges = [
        (node, event.id)
        for event in fta.atomic_events()
        for cls, node in AVP_BINDINGS.items()
        if any(cls in pair for pair in event.oper_conditions)
    ]

    def failure_rows(weights, base, spans):
        # P(occurs) = base + sum(span * risk of that parent state)
        return bayes_core._grid_rows([s * np.asarray(w) for s, w in zip(spans, weights)],
                                     lambda total: base + total)

    # save_bn writes the tables in this order
    cpts = [
        Cpt("Fog", (), ((0.3, 0.25, 0.2, 0.15, 0.1),)),
        Cpt("Rain", (), ((0.6, 0.3, 0.1),)),
        Cpt("Ego_speed", (), ((0.2, 0.5, 0.3),)),
        tree.cpts["Presence_of_object"],
        Cpt(
            "Detection_of_object",
            ("Fog", "Rain", "Ego_speed"),
            failure_rows((_FOG_RISK, _RAIN_RISK, _SPEED_RISK), 0.02, (0.55, 0.2, 0.15)),
        ),
        Cpt("Brake_execution", ("Ego_speed",), failure_rows((_SPEED_RISK,), 0.05, (0.3,))),
        Cpt("Forward_collision", ("Ego_speed",), failure_rows((_SPEED_RISK,), 0.02, (0.25,))),
        tree.cpts[HAZARD_ID],
    ]
    return build_net([*conditions, *tree.nodes.values()], [*edges, *tree.edges], cpts, HAZARD_ID)


def avp_acp() -> AcpBinding:
    return AcpBinding(AVP_SOLUTION_ID, HAZARD_ID, AVP_STATE_VALUES)


def avp_bundle() -> ModelBundle:
    return make_bundle(avp_odd_spec(), avp_monitor_bn(), AVP_BINDINGS, avp_acp())


def fog_ramp_script(ticks: int = 100, start: float = 2000.0, end: float = 30.0) -> dict:
    """Fog clamping down from clear to dense while rain and speed stay fixed."""
    return {
        "t0": 0.0,
        "dt": 1.0,
        "channels": {
            "Fog": {"segments": [{"mode": "ramp", "start": start, "end": end, "ticks": ticks}]},
            "Rain": {"segments": [{"mode": "const", "value": 0.1, "ticks": ticks}]},
            "Ego_speed": {"segments": [{"mode": "const", "value": 20.0, "ticks": ticks}]},
        },
    }


def write_avp_bundle(directory) -> Path:
    """Write the complete AVP bundle (ODD, HARA, priors, confidence net,
    manifest, fog-ramp script, ontology) into a directory and return the
    manifest path. The directory is created if needed."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "odd": "avp_odd.json",
        "net": "avp_confidence_bn.json",
        "bindings": AVP_BINDINGS,
        "acp": dataclasses.asdict(avp_acp()),
        "oodd_policy": "drop",
        "worst_states": {},
    }
    for name, document in (
        ("avp_odd.json", AVP_ODD_DOCUMENT),
        ("avp_hara.json", AVP_HARA_DOCUMENT),
        ("avp_priors.json", AVP_LEAF_PRIORS),
        ("avp_bundle.json", manifest),
        ("fog_ramp.json", fog_ramp_script()),
    ):
        (directory / name).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    bayes_core.save_bn(avp_monitor_bn(), directory / "avp_confidence_bn.json")
    safety_ontology.save_graph(avp_ontology(), directory / "avp_ontology.nt")
    (directory / "avp_trace.csv").write_text(example_trace_csv(), encoding="utf-8")
    (directory / "avp_states.csv").write_text(example_states_csv(), encoding="utf-8")
    return directory / "avp_bundle.json"


def example_trace_csv() -> str:
    """Labeled refinement trace of 400 rows: safe iff lighting stays low and
    fog visibility stays high (a planted two-feature concept)."""
    rng = random.Random(12)
    lines = ["Vehicle_lighting,Fog,label"]
    for _ in range(400):
        lighting = rng.uniform(0.0, 150.0)
        fog = rng.uniform(0.0, 3000.0)
        label = "Yes" if lighting <= 60.48 and fog > 244.0 else "No"
        lines.append(f"{lighting:.3f},{fog:.3f},{label}")
    return "\n".join(lines) + "\n"


def example_states_csv() -> str:
    """Attribute-state dataset of 500 rows for coverage queries over Rain and Fog."""
    rng = random.Random(21)
    rain, fog = _attribute_names("Rain"), _attribute_names("Fog")
    lines = ["Rain,Fog"]
    for _ in range(500):
        lines.append(f"{rng.choice(rain)},{rng.choice(fog)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Safety ontology fixture


def avp_ontology() -> TripleGraph:
    """ODD taxonomy, hazard events, GSN argument, and network metadata as one
    consistent graph (zero axiom violations). The weather branch of the class
    tree comes from the ODD document, the event types and the chain edges
    from the HARA document, and the network metadata from the data template's
    edges into its objective."""
    classes = {c["name"]: c for c in AVP_ODD_DOCUMENT["classes"]}
    parent = {name: c["parent"] for name, c in classes.items()}
    # Weather_conditions' subclasses, then Weather_conditions up to the root
    branch = [name for name, up in parent.items() if up == "Weather_conditions"]
    name = "Weather_conditions"
    while name is not None:
        branch.append(name)
        name = parent[name]
    # the last Rain attribute is the heavy rain its interval's lower bound constrains
    rain = _attribute_names("Rain")
    (unit,) = {Literal(a["unit"]) for a in classes["Rain"]["attributes"]}
    heavy = parse_interval(classes["Rain"]["attributes"][-1]["interval"])
    constraint = Literal(f"{'≥' if heavy.lo_inclusive else '>'}{heavy.lo!r}")
    events = AVP_HARA_DOCUMENT["events"]
    (chain,) = AVP_HARA_DOCUMENT["chains"]
    # GSN goal -> the solution evidencing it; the monitor's ACP attaches to G8's
    solutions = {"G8": AVP_SOLUTION_ID, "G9": "Sn9.1", "G11": "Sn11.1"}
    # the data template's objective and the nodes with an edge into it
    _, data_edges = _LAYERS[0]
    into_objective = [src for src, dst in data_edges if dst == DATA_OBJECTIVE]
    cpt = f"{DATA_OBJECTIVE}_cpt"
    typed = [
        *((name, "OddClass") for name in branch),
        *((name, "OddAttribute") for name in rain),
        (unit, "Unit"),
        (constraint, "Constraint"),
        *((e["id"], kind) for e in events for kind in ("Event", e["role"].capitalize() + "Event")),
        ("G1", "Goal"),
        ("G1", "TopLevelGoal"),
        ("S1", "Strategy"),
        *((goal, "Goal") for goal in solutions),
        *((sn, kind) for sn in solutions.values() for kind in ("Goal", "Solution", "Evidence")),
        *((node, "Node") for node in (*into_objective, DATA_OBJECTIVE)),
        (DATA_OBJECTIVE, "ObjNode"),
        (cpt, "CptTable"),
    ]
    return assert_all(
        TripleGraph(),
        [
            *(Triple(ind, RDF_TYPE, cls) for ind, cls in typed),
            *(Triple(name, "subClassOf", parent[name]) for name in branch if parent[name]),
            *(Triple("Rain", "hasAttribute", name) for name in rain),
            Triple(rain[-1], "hasDomain", unit),
            Triple(rain[-1], "hasDomain", constraint),
            *(Triple(e["from"], e["kind"], e["to"]) for e in chain["edges"]),
            Triple("Detection_of_object", "hasOperCond", rain[-1]),
            # GSN argument
            Triple("G1", "relatedTo", HAZARD_ID),
            Triple("G1", "hasText", Literal("The object detector performs adequately within the ODD")),
            Triple("G1", "supportedBy", "S1"),
            *(Triple("S1", "supportedBy", goal) for goal in solutions),
            *(Triple(goal, "hasEvidence", sn) for goal, sn in solutions.items()),
            # confidence network metadata
            *(Triple(node, "dependsOn", DATA_OBJECTIVE) for node in into_objective),
            Triple(DATA_OBJECTIVE, "hasCPT", cpt),
        ],
    )
