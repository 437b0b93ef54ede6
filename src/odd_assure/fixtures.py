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

import json
import random
from pathlib import Path

import numpy as np

from . import bayes_core, hara_fta, safety_ontology
from .bayes_core import BnNode, Cpt, build_net
from .confidence_templates import AcpBinding
from .hara_fta import GateOp
from .odd_model import OddSpec, parse_odd_spec
from .runtime_monitor import ModelBundle, make_bundle
from .safety_ontology import Literal, Triple, TripleGraph, assert_all

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


def avp_compiled_bn() -> bayes_core.BayesNet:
    """The hazard fault tree compiled with flat leaf priors."""
    return bayes_core.compile_fta_to_bn(avp_fta(), AVP_LEAF_PRIORS)


# Risk weight of each observable state, scaled into failure probabilities by
# the event CPT builders below. Index order matches the node state order.
_FOG_STATES = ("Fog_Severity_1", "Fog_Severity_2", "Fog_Severity_3", "Fog_Severity_4", "Fog_Severity_5")
_RAIN_STATES = ("Rain_light", "Rain_Moderate", "Rain_Heavy")
_SPEED_STATES = ("Speed_High", "Speed_Medium", "Speed_Low")
_FOG_RISK = (0.0, 0.25, 0.5, 0.75, 1.0)
_RAIN_RISK = (0.0, 0.5, 1.0)
_SPEED_RISK = (1.0, 0.5, 0.0)


def avp_monitor_bn() -> bayes_core.BayesNet:
    """Confidence network for the monitor bundle.

    The compiled hazard tree keeps its OR gate, but the observable events
    gain the ODD condition nodes as parents so that live readings shift the
    failure probabilities: fog, rain, and speed feed the detection event, and
    speed alone feeds braking and collision.
    """
    nodes = [
        BnNode("Fog", _FOG_STATES),
        BnNode("Rain", _RAIN_STATES),
        BnNode("Ego_speed", _SPEED_STATES),
        BnNode("Presence_of_object", bayes_core.EVENT_STATES),
        BnNode("Detection_of_object", bayes_core.EVENT_STATES),
        BnNode("Brake_execution", bayes_core.EVENT_STATES),
        BnNode("Forward_collision", bayes_core.EVENT_STATES),
        BnNode(HAZARD_ID, bayes_core.EVENT_STATES),
    ]
    edges = [
        ("Fog", "Detection_of_object"),
        ("Rain", "Detection_of_object"),
        ("Ego_speed", "Detection_of_object"),
        ("Ego_speed", "Brake_execution"),
        ("Ego_speed", "Forward_collision"),
        ("Presence_of_object", HAZARD_ID),
        ("Detection_of_object", HAZARD_ID),
        ("Brake_execution", HAZARD_ID),
        ("Forward_collision", HAZARD_ID),
    ]

    def failure_rows(weights, base, spans):
        # One axis per parent, first parent outermost, so the grid flattens
        # in Cpt row order; P(occurs) = base + sum(span * risk of that
        # parent state), summed in parent order as a per-row sum would be.
        terms = np.ix_(*(s * np.asarray(w) for s, w in zip(spans, weights)))
        p_occurs = (base + sum(terms)).ravel()
        return np.column_stack((p_occurs, 1.0 - p_occurs))

    cpts = [
        Cpt("Fog", (), ((0.3, 0.25, 0.2, 0.15, 0.1),)),
        Cpt("Rain", (), ((0.6, 0.3, 0.1),)),
        Cpt("Ego_speed", (), ((0.2, 0.5, 0.3),)),
        Cpt("Presence_of_object", (), ((0.5, 0.5),)),
        Cpt(
            "Detection_of_object",
            ("Fog", "Rain", "Ego_speed"),
            failure_rows((_FOG_RISK, _RAIN_RISK, _SPEED_RISK), 0.02, (0.55, 0.2, 0.15)),
        ),
        Cpt("Brake_execution", ("Ego_speed",), failure_rows((_SPEED_RISK,), 0.05, (0.3,))),
        Cpt("Forward_collision", ("Ego_speed",), failure_rows((_SPEED_RISK,), 0.02, (0.25,))),
        Cpt(
            HAZARD_ID,
            ("Presence_of_object", "Detection_of_object", "Brake_execution", "Forward_collision"),
            bayes_core.gate_cpt(GateOp.OR, 4),
        ),
    ]
    return build_net(nodes, edges, cpts, objective=HAZARD_ID)


AVP_BINDINGS = {"Fog": "Fog", "Rain": "Rain", "Ego_speed": "Ego_speed"}
AVP_STATE_VALUES = {"occurs": 0.0, "not_occurs": 1.0}
AVP_SOLUTION_ID = "Sn8.1"


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
    (directory / "avp_odd.json").write_text(
        json.dumps(AVP_ODD_DOCUMENT, indent=2) + "\n", encoding="utf-8"
    )
    (directory / "avp_hara.json").write_text(
        json.dumps(AVP_HARA_DOCUMENT, indent=2) + "\n", encoding="utf-8"
    )
    (directory / "avp_priors.json").write_text(
        json.dumps(AVP_LEAF_PRIORS, indent=2) + "\n", encoding="utf-8"
    )
    bayes_core.save_bn(avp_monitor_bn(), directory / "avp_confidence_bn.json")
    manifest = {
        "odd": "avp_odd.json",
        "net": "avp_confidence_bn.json",
        "bindings": AVP_BINDINGS,
        "acp": {
            "solution_id": AVP_SOLUTION_ID,
            "objective": HAZARD_ID,
            "state_values": AVP_STATE_VALUES,
        },
        "oodd_policy": "drop",
        "worst_states": {},
    }
    (directory / "avp_bundle.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    (directory / "fog_ramp.json").write_text(
        json.dumps(fog_ramp_script(), indent=2) + "\n", encoding="utf-8"
    )
    safety_ontology.save_graph(avp_ontology(), directory / "avp_ontology.nt")
    (directory / "avp_trace.csv").write_text(example_trace_csv(), encoding="utf-8")
    (directory / "avp_states.csv").write_text(example_states_csv(), encoding="utf-8")
    return directory / "avp_bundle.json"


def example_trace_csv(n: int = 400, seed: int = 12) -> str:
    """Labeled refinement trace: safe iff lighting stays low and fog
    visibility stays high (a planted two-feature concept)."""
    rng = random.Random(seed)
    lines = ["Vehicle_lighting,Fog,label"]
    for _ in range(n):
        lighting = rng.uniform(0.0, 150.0)
        fog = rng.uniform(0.0, 3000.0)
        label = "Yes" if lighting <= 60.48 and fog > 244.0 else "No"
        lines.append(f"{lighting:.3f},{fog:.3f},{label}")
    return "\n".join(lines) + "\n"


def example_states_csv(n: int = 500, seed: int = 21) -> str:
    """Attribute-state dataset for coverage queries over Rain and Fog."""
    rng = random.Random(seed)
    rain = ("Rain_light", "Rain_Moderate", "Rain_Heavy")
    fog = ("Fog_Severity_1", "Fog_Severity_2", "Fog_Severity_3", "Fog_Severity_4", "Fog_Severity_5")
    lines = ["Rain,Fog"]
    for _ in range(n):
        lines.append(f"{rng.choice(rain)},{rng.choice(fog)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Safety ontology fixture


def avp_ontology() -> TripleGraph:
    """ODD taxonomy, hazard events, GSN argument, and network metadata as one
    consistent graph (zero axiom violations)."""
    g = TripleGraph()
    typed: list[tuple[str, str]] = [
        ("ODD", "OddClass"),
        ("Environment_conditions", "OddClass"),
        ("Weather_conditions", "OddClass"),
        ("Rain", "OddClass"),
        ("Fog", "OddClass"),
        ("Snow", "OddClass"),
        ("Rain_light", "OddAttribute"),
        ("Rain_Moderate", "OddAttribute"),
        ("Rain_heavy", "OddAttribute"),
        (HAZARD_ID, "Event"),
        (HAZARD_ID, "HazardousEvent"),
        ("Presence_of_object", "Event"),
        ("Presence_of_object", "OccurrenceEvent"),
        ("Detection_of_object", "Event"),
        ("Detection_of_object", "OccurrenceEvent"),
        ("Brake_execution", "Event"),
        ("Brake_execution", "ConsequenceEvent"),
        ("Forward_collision", "Event"),
        ("Forward_collision", "ConsequenceEvent"),
        ("G1", "Goal"),
        ("G1", "TopLevelGoal"),
        ("S1", "Strategy"),
        ("G8", "Goal"),
        ("G9", "Goal"),
        ("G11", "Goal"),
        ("Sn8.1", "Goal"),
        ("Sn8.1", "Solution"),
        ("Sn8.1", "Evidence"),
        ("Sn9.1", "Goal"),
        ("Sn9.1", "Solution"),
        ("Sn9.1", "Evidence"),
        ("Sn11.1", "Goal"),
        ("Sn11.1", "Solution"),
        ("Sn11.1", "Evidence"),
        ("OddSuff", "Node"),
        ("DataMetric", "Node"),
        ("DataComp", "Node"),
        ("DataComp", "ObjNode"),
        ("DataComp_cpt", "CptTable"),
    ]
    g = assert_all(g, (Triple(ind, safety_ontology.RDF_TYPE, cls) for ind, cls in typed))
    g = assert_all(
        g,
        [
            Triple("Weather_conditions", "subClassOf", "Environment_conditions"),
            Triple("Environment_conditions", "subClassOf", "ODD"),
            Triple("Rain", "subClassOf", "Weather_conditions"),
            Triple("Fog", "subClassOf", "Weather_conditions"),
            Triple("Snow", "subClassOf", "Weather_conditions"),
            Triple("Rain", "hasAttribute", "Rain_heavy"),
            Triple("Rain", "hasAttribute", "Rain_light"),
            Triple("Rain", "hasAttribute", "Rain_Moderate"),
            Triple("Rain_heavy", "hasDomain", Literal("cm/h")),
            Triple("Rain_heavy", "hasDomain", Literal("≥0.77")),
            # hazard-cause-effect structure
            Triple("Presence_of_object", "trigger", HAZARD_ID),
            Triple("Detection_of_object", "trigger", HAZARD_ID),
            Triple("Detection_of_object", "dependsOnOccurrence", "Presence_of_object"),
            Triple(HAZARD_ID, "dependsOnOccurrence", "Detection_of_object"),
            Triple("Brake_execution", "dependsOnHazardous", HAZARD_ID),
            Triple("Forward_collision", "dependsOnHazardous", HAZARD_ID),
            Triple("Forward_collision", "dependsOnConsequence", "Brake_execution"),
            Triple("Detection_of_object", "hasOperCond", "Rain_heavy"),
            # GSN argument
            Triple("G1", "relatedTo", HAZARD_ID),
            Triple("G1", "hasText", Literal("The object detector performs adequately within the ODD")),
            Triple("G1", "supportedBy", "S1"),
            Triple("S1", "supportedBy", "G8"),
            Triple("S1", "supportedBy", "G9"),
            Triple("S1", "supportedBy", "G11"),
            Triple("G8", "hasEvidence", "Sn8.1"),
            Triple("G9", "hasEvidence", "Sn9.1"),
            Triple("G11", "hasEvidence", "Sn11.1"),
            # confidence network metadata
            Triple("OddSuff", "dependsOn", "DataComp"),
            Triple("DataMetric", "dependsOn", "DataComp"),
            Triple("DataComp", "hasCPT", "DataComp_cpt"),
        ],
    )
    g = assert_all(
        g,
        [
            Triple(Literal("cm/h"), safety_ontology.RDF_TYPE, "Unit"),
            Triple(Literal("≥0.77"), safety_ontology.RDF_TYPE, "Constraint"),
        ],
    )
    return g
